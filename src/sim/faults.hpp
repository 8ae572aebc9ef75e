// Fault injection for the interconnect: scripted and stochastic failure /
// repair events over converters, output channels, and whole output fibers.
//
// A real interconnect serving heavy traffic loses hardware at runtime; this
// module turns those losses into the per-fiber core::HealthMask vector the
// schedulers consume, so degradation is a first-class scheduling constraint
// instead of an invisible error.
//
// Two event sources, combinable:
//
//  * scripted — an explicit list of (slot, component, fail/repair) events,
//    for reproducible drills ("cut fiber 3 at slot 2000, splice it at 6000");
//  * stochastic — every component alternates up/down as a two-state Markov
//    chain with per-slot failure probability 1/MTBF and repair probability
//    1/MTTR (geometric up- and down-times, the standard memoryless model).
//
// Determinism contract: the injector owns an independent RNG stream (seeded
// via util::derive_stream_seed, never shared with traffic or scheduling) and
// draws exactly one variate per stochastic component per slot regardless of
// state, so a fault schedule replays bit-for-bit from its seed and enabling
// faults never perturbs the arrival sequence of the same master seed. A
// component flips when its draw's mantissa m = next() >> 11 is below
// ceil(p * 2^53), p = 1/MTBF while up and 1/MTTR while down: exactly the
// uniform01() < p compare (util::BernoulliSampler), with no double per draw.
//
// Cost: one tight loop per component class per slot (2Nk + N draws). The
// health masks are maintained per flip, so a slot in which nothing flips
// touches none of them, and changed_fibers() lists the fibers a slot's flips
// touched, so consumers can re-check those fibers alone.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/health.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace wdm::sim {

enum class FaultKind : std::uint8_t {
  kConverter,  ///< one channel's wavelength converter (adjacency -> d = 1)
  kChannel,    ///< one output wavelength channel (unusable entirely)
  kFiber,      ///< one whole output fiber (everything rejected kFaulted)
};

/// One scripted failure or repair, applied at the start of `slot`.
struct FaultEvent {
  std::uint64_t slot = 0;
  FaultKind kind = FaultKind::kChannel;
  std::int32_t fiber = 0;
  std::int32_t channel = 0;  ///< ignored for kFiber
  bool repair = false;       ///< false = fail, true = repair
};

/// Geometric up/down times for one fault class; mtbf == 0 disables the
/// class. Both times are in slots and must be >= 1 when enabled.
struct MtbfMttr {
  double mtbf = 0.0;
  double mttr = 0.0;
  bool enabled() const noexcept { return mtbf > 0.0; }
};

struct FaultConfig {
  std::vector<FaultEvent> script;
  MtbfMttr converters;
  MtbfMttr channels;
  MtbfMttr fibers;

  bool enabled() const noexcept {
    return !script.empty() || converters.enabled() || channels.enabled() ||
           fibers.enabled();
  }
};

class FaultInjector {
 public:
  /// Validates the script against the (n_fibers, k) geometry up front;
  /// `seed` should come from util::derive_stream_seed so the fault stream is
  /// independent of every other consumer of the master seed.
  FaultInjector(std::int32_t n_fibers, std::int32_t k, FaultConfig config,
                std::uint64_t seed);

  /// Advances one slot: applies scripted events for the new slot index
  /// (starting at 0), then one stochastic transition per enabled component.
  void tick();

  /// Slots ticked so far.
  std::uint64_t slots() const noexcept { return slots_; }

  /// Current per-output-fiber health, one mask per fiber, channels always
  /// materialised (size k).
  const std::vector<core::HealthMask>& health() const noexcept {
    return health_;
  }

  /// Output fibers with at least one flip (scripted or stochastic) in the
  /// most recent tick(), each listed once, in order of first flip. Every
  /// other fiber's health mask is unchanged since the previous tick.
  std::span<const std::int32_t> changed_fibers() const noexcept {
    return changed_fibers_;
  }

  /// True while any component is down — lets callers skip the degraded
  /// scheduling path entirely on healthy slots.
  bool any_fault() const noexcept { return down_components_ > 0; }
  std::int64_t down_components() const noexcept { return down_components_; }

  std::uint64_t failures_injected() const noexcept { return failures_; }
  std::uint64_t repairs_applied() const noexcept { return repairs_; }

  /// Attaches (or detaches) a trace recorder: every state flip — scripted or
  /// stochastic — records a kFaultFail / kFaultRepair instant. Observer only:
  /// it never touches the RNG stream and is not serialized.
  void set_telemetry(obs::TraceRecorder* recorder) noexcept {
    telemetry_ = recorder;
  }

  /// Checkpoint of the injector's mutable state (RNG stream, script cursor,
  /// per-component up/down flags); the health masks are rebuilt on restore
  /// and changed_fibers() is empty until the next tick().
  void save_state(util::SnapshotWriter& w) const;
  void restore_state(util::SnapshotReader& r);

 private:
  /// Integer flip thresholds of one stochastic class, ceil(p * 2^53).
  struct Thresholds {
    std::uint64_t fail = 0;    // p = 1/MTBF, compared while up
    std::uint64_t repair = 0;  // p = 1/MTTR, compared while down
  };
  static Thresholds thresholds(const MtbfMttr& rates) noexcept;

  void apply(FaultKind kind, std::int32_t fiber, std::int32_t channel,
             bool repair);
  /// Up/down flags of one component class, indexed fiber * k + channel
  /// (by fiber for kFiber).
  std::vector<std::uint8_t>& down_flags(FaultKind kind);
  /// One stochastic transition per component of a class.
  void tick_class(FaultKind kind, Thresholds t);
  /// Flips component `at` of `kind`: its flag, counters, telemetry, its
  /// health entry and the changed-fiber list.
  void flip(FaultKind kind, std::size_t at, bool make_down);
  void record_fault(FaultKind kind, std::int32_t fiber, std::int32_t channel,
                    bool repair);
  void refresh_channel(std::size_t at);
  void clear_changed_fibers();
  void rebuild_health();

  std::int32_t n_fibers_;
  std::int32_t k_;
  FaultConfig config_;  // script sorted by slot in the constructor
  util::Rng rng_;
  std::size_t next_event_ = 0;
  std::uint64_t slots_ = 0;
  std::vector<std::uint8_t> converter_down_;  // [fiber * k + channel]
  std::vector<std::uint8_t> channel_down_;    // [fiber * k + channel]
  std::vector<std::uint8_t> fiber_down_;      // [fiber]
  std::int64_t down_components_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t repairs_ = 0;
  Thresholds converter_rates_;
  Thresholds channel_rates_;
  Thresholds fiber_rates_;
  std::vector<core::HealthMask> health_;
  std::vector<std::int32_t> changed_fibers_;
  std::vector<std::uint8_t> fiber_changed_;  // [fiber], 1 while listed
  obs::TraceRecorder* telemetry_ = nullptr;
};

}  // namespace wdm::sim
