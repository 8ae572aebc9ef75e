// Hardware health state for one output fiber, and the fault reduction that
// keeps the scheduling kernels maximum when hardware degrades.
//
// The paper's Figure-1 architecture gives every output channel a dedicated
// limited-range converter; the schedulers assume all of them (and the
// channels and fibers themselves) are healthy. At production scale they are
// not, so three fault classes become first-class scheduling inputs:
//
//  * converter fault — the channel's converter is dead, but the channel
//    itself still passes light: only a request already on the channel's
//    wavelength can use it (the adjacency collapses to d = 1);
//  * channel fault — the output channel (laser / transceiver) is dead:
//    nothing can use it;
//  * fiber fault — the whole output fiber is cut: every request destined
//    to it is rejected with RejectReason::kFaulted.
//
// Degraded scheduling stays a *maximum matching on the surviving request
// graph* via a reduction instead of new kernels (see apply_health): a
// converter-faulted free channel u has edges only to wavelength-u requests,
// and an exchange argument shows some maximum matching grants u to one of
// them whenever one exists — so pre-granting that pair and deleting u
// preserves the maximum. Channel deletion is the availability-mask deletion
// the kernels already handle exactly (Section V of the paper). The oracle
// fuzzer re-proves the whole reduction differentially against Hopcroft–Karp
// on the explicit fault-reduced graph.
//
// The reduction comes in two forms with one result. apply_health works on
// byte masks and returns a fresh instance; the oracle and the graph
// baselines use it. fold_health is the production form: the same deletions
// and pre-grants as word operations on the packed masks of
// core/wave_mask.hpp, written into caller-owned scratch. A faulted fiber
// therefore runs the same word kernel as a healthy one, and neither
// allocates once the scratch is warm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/channel_assignment.hpp"
#include "core/request.hpp"
#include "core/wavelength.hpp"

namespace wdm::core {

/// Health of one output wavelength channel (converter + transceiver).
enum class ChannelHealth : std::uint8_t {
  kHealthy = 0,
  kConverterFaulted,  ///< channel up, converter down: only wavelength u -> u
  kChannelFaulted,    ///< channel down: unusable by every wavelength
};

/// Health of one output fiber: a fiber-cut flag plus per-channel states.
/// An empty `channels` vector means every channel is healthy.
struct HealthMask {
  bool fiber_faulted = false;
  std::vector<ChannelHealth> channels;

  /// All-healthy fast-path predicate (empty channels counts as healthy).
  bool all_healthy() const noexcept;

  /// Health of channel `u` (empty channels vector = healthy).
  ChannelHealth channel(Channel u) const noexcept {
    return channels.empty() ? ChannelHealth::kHealthy
                            : channels[static_cast<std::size_t>(u)];
  }

  static HealthMask healthy(std::int32_t k);

  friend bool operator==(const HealthMask&, const HealthMask&) = default;
};

/// The fault reduction of one per-fiber scheduling instance.
struct HealthReduction {
  /// Request counts after the converter-fault pre-grants were taken out.
  RequestVector requests;
  /// Effective availability mask: input mask with every faulted channel
  /// (converter or channel fault) removed. Always size k.
  std::vector<std::uint8_t> availability;
  /// pre_granted[u] = 1 iff converter-faulted channel u was pre-granted to a
  /// wavelength-u request (exactly one per such channel).
  std::vector<std::uint8_t> pre_granted;
  std::int32_t pre_grant_count = 0;

  explicit HealthReduction(std::int32_t k)
      : requests(k),
        availability(static_cast<std::size_t>(k), 1),
        pre_granted(static_cast<std::size_t>(k), 0) {}
};

/// Reduces (requests, available, health) to a healthy-hardware instance whose
/// maximum matching, plus the pre-grants, is a maximum matching of the
/// fault-reduced request graph. `available` may be empty (= all free);
/// `health.channels` must be empty or size k; `health.fiber_faulted` yields
/// an all-unavailable reduction with no pre-grants.
HealthReduction apply_health(const RequestVector& requests,
                             std::span<const std::uint8_t> available,
                             const HealthMask& health);

/// apply_health in packed-word form (core/wave_mask.hpp layout), as
/// caller-owned scratch. Sized by the first fold_health call; later folds
/// of the same k reuse the capacity and never allocate.
struct HealthFold {
  /// Request counts after the converter-fault pre-grants were taken out.
  RequestVector requests;
  /// Input availability row with every faulted channel cleared.
  std::vector<std::uint64_t> availability;
  /// Nonempty-wavelength mask of `requests`.
  std::vector<std::uint64_t> nonempty;
  /// Bit u set iff converter-faulted channel u was pre-granted to a
  /// wavelength-u request.
  std::vector<std::uint64_t> pre_granted;

  /// Writes the pre-grants (channel u -> wavelength u) into a kernel's
  /// assignment of the folded instance, which leaves those channels free.
  void write_pre_grants(ChannelAssignment& out) const;
};

/// Folds `health` into copies of a port's packed masks: `avail_words` is
/// the availability row (bit = 1 free) and `nonempty_words` must be the
/// nonempty mask of `requests` (bit w set iff requests.count(w) > 0), both
/// mask_words(k) words. The result equals apply_health on the unpacked
/// instance: same reduced counts, availability and pre-grants.
void fold_health(const RequestVector& requests,
                 std::span<const std::uint64_t> avail_words,
                 std::span<const std::uint64_t> nonempty_words,
                 const HealthMask& health, HealthFold& out);

}  // namespace wdm::core
