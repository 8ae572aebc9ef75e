// Synthetic slotted traffic for the WDM interconnect (the paper's setting:
// optical packets arriving at the beginning of each time slot, unicast, no
// buffers).
//
// Arrival processes:
//  * Bernoulli — each idle input wavelength channel carries a new packet
//    with probability `load`, i.i.d. per slot (the standard model in the
//    paper's references [11][13][14]);
//  * On-off (bursty) — each input channel is a two-state Markov source; ON
//    emits one packet per slot toward a per-burst destination. For a given
//    load ρ and mean burst length b: p(off->on) = min(1, ρ/((1-ρ) b)),
//    p(on->off) = 1/b. A source that turns on emits in that same slot, so
//    an OFF period averages 1/p(off->on) - 1 silent slots and the realized
//    load is b / (b + b(1-ρ)/ρ - 1), not ρ: 0.533 at ρ = 0.5, b = 8, and
//    1.0 for every ρ >= b/(b+1) (p(off->on) clamps to 1).
//
// Destinations are uniform or Zipf-skewed hotspots. Holding times (Section
// V) are 1 slot, a fixed D, or geometric with a given mean.
#pragma once

#include <cstdint>
#include <vector>

#include "core/distributed.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace wdm::sim {

enum class ArrivalProcess : std::uint8_t { kBernoulli, kOnOff };
enum class DestinationPattern : std::uint8_t { kUniform, kHotspot };
enum class HoldingTime : std::uint8_t { kSingleSlot, kFixed, kGeometric };

struct TrafficConfig {
  /// Offered load per input wavelength channel, [0, 1]: the per-slot
  /// arrival probability of a Bernoulli source; on-off sources realize more
  /// (see above).
  double load = 0.5;
  ArrivalProcess arrivals = ArrivalProcess::kBernoulli;
  double mean_burst_length = 8.0;  ///< on-off: mean ON duration in slots
  DestinationPattern destinations = DestinationPattern::kUniform;
  double hotspot_alpha = 1.0;  ///< Zipf exponent for kHotspot
  HoldingTime holding = HoldingTime::kSingleSlot;
  double mean_holding = 1.0;  ///< slots; kFixed rounds, kGeometric mean
  /// QoS class mix: class_mix[c] is the probability a new request belongs
  /// to priority class c (0 = highest). Must sum to ~1. Default: one class.
  std::vector<double> class_mix = {1.0};
};

class TrafficGenerator {
 public:
  TrafficGenerator(std::int32_t n_fibers, std::int32_t k, TrafficConfig config,
                   std::uint64_t seed);

  std::int32_t n_fibers() const noexcept { return n_fibers_; }
  std::int32_t k() const noexcept { return k_; }
  const TrafficConfig& config() const noexcept { return config_; }

  /// New requests for one slot. `input_channel_busy`, if nonempty (size
  /// N*k, index fiber*k + wavelength), suppresses arrivals on input channels
  /// still occupied by a multi-slot connection.
  std::vector<core::SlotRequest> next_slot(
      const std::vector<std::uint8_t>& input_channel_busy = {});

  /// next_slot() into a caller-owned buffer: clears `out` and fills it with
  /// the slot's requests. Capacity persists across slots, so a warm caller
  /// (the fleet's per-shard slot loop) performs no heap allocation.
  void next_slot_into(const std::vector<std::uint8_t>& input_channel_busy,
                      std::vector<core::SlotRequest>& out);

  /// Total requests generated so far.
  std::uint64_t generated() const noexcept { return next_id_; }

  /// Checkpoint of the generator's mutable state (RNG stream, per-channel
  /// burst state, id counter) so a live simulation can resume bit-for-bit.
  void save_state(util::SnapshotWriter& w) const;
  void restore_state(util::SnapshotReader& r);

 private:
  // One slot of each arrival process; `busy` is null when nothing is
  // suppressed. next_slot_into picks the process once per slot.
  void bernoulli_slot(const std::uint8_t* busy,
                      std::vector<core::SlotRequest>& out);
  void on_off_slot(const std::uint8_t* busy,
                   std::vector<core::SlotRequest>& out);

  // The slot loops draw from a local copy of rng_ (written back at the end
  // of the slot), so the stream stays in registers across the requests they
  // store.
  std::int32_t sample_duration(util::Rng& rng) const;

  std::int32_t n_fibers_;
  std::int32_t k_;
  TrafficConfig config_;
  util::Rng rng_;
  util::ZipfSampler zipf_;
  // Fixed-probability samplers built once from config_; each decides from
  // the same draws as the plain formula would (util/rng.hpp).
  util::BernoulliSampler arrival_;    // Bernoulli: new packet, p = load
  util::BernoulliSampler burst_on_;   // on-off: off -> on
  util::BernoulliSampler burst_off_;  // on-off: on -> off
  util::GeometricSampler holding_;    // kGeometric, p = 1/mean_holding
  util::CategoricalSampler class_;    // QoS class, weights class_mix
  // On-off per-channel state: current burst destination, or -1 when OFF.
  std::vector<std::int32_t> burst_dest_;
  std::uint64_t next_id_ = 0;
};

}  // namespace wdm::sim
