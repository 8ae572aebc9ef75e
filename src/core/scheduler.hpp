// Per-output-fiber scheduler: algorithm dispatch plus fairness arbitration.
//
// This is the component the paper's Section I sketches: each output fiber
// runs its own scheduler, whose input is the requests destined to that fiber
// in the current slot and whose output is grant/reject plus an assigned
// channel per granted request. The matching kernels decide how many requests
// of each *wavelength* win (that alone fixes the matching size); which
// individual same-wavelength request wins is then a fairness decision made
// by random or round-robin arbitration, as the paper recommends following
// PIM [7] and iSLIP [8].
//
// Besides the paper's algorithms, the scheduler can run the generic
// maximum-matching baselines (Hopcroft–Karp [1], Glover's algorithm [2]) on
// the explicit request graph — the comparison targets of experiments E1/E2.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/break_first_available.hpp"
#include "core/channel_assignment.hpp"
#include "core/conversion.hpp"
#include "core/health.hpp"
#include "core/request.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace wdm::core {

enum class Algorithm : std::uint8_t {
  kAuto,                 ///< pick by scheme: FA, BFA, or full-range
  kFirstAvailable,       ///< Table 2 (non-circular), O(k)
  kBreakFirstAvailable,  ///< Table 3 (circular), O(dk)
  kApproxBfa,            ///< Section IV.C single-break, O(k)
  kFullRange,            ///< trivial full-range rule
  kHopcroftKarp,         ///< baseline [1] on the explicit request graph
  kGlover,               ///< baseline Table 1 (non-circular only)
  kGreedyMaximal,        ///< ablation: maximal (not maximum) greedy matching
  kSparseBudgeted,       ///< sparse conversion: <= converter_budget conversions
};

enum class Arbitration : std::uint8_t {
  kFifo,        ///< earliest request of the wavelength wins
  kRoundRobin,  ///< rotating cursor per wavelength (iSLIP-style)
  kRandom,      ///< uniform random winners (PIM-style)
};

/// Why a request was not granted. Malformed inputs are rejected per-request —
/// one bad SlotRequest costs one grant, never the slot or the process — and
/// surface in MetricsCollector as `rejected_malformed`.
enum class RejectReason : std::uint8_t {
  kGranted = 0,          ///< granted (no rejection)
  kUndecided,            ///< default state: the scheduler never decided (bug)
  kNoChannel,            ///< well-formed, but the matching had no channel left
  kInvalidOutputFiber,   ///< output fiber outside [0, N)
  kInvalidWavelength,    ///< wavelength outside [0, k)
  kInvalidInputFiber,    ///< negative (or out-of-range) input fiber
  kInvalidDuration,      ///< holding time < 1 slot
  kInvalidPriority,      ///< negative QoS class
  kBadAvailabilityMask,  ///< availability mask has the wrong shape
  kInternalError,        ///< the per-fiber kernel threw; the slot survived
  kFaulted,              ///< destination fiber is down (hardware fault)
  kBadHealthMask,        ///< health mask has the wrong shape
  kShedOverload,         ///< shed by admission control / queue overflow
};

/// True for rejections caused by malformed input or an internal fault, as
/// opposed to a genuine capacity loss (kNoChannel), a hardware fault on
/// the destination (kFaulted, which MetricsCollector counts separately and
/// the interconnect's retry queue may re-offer in a later slot), or an
/// overload shed (kShedOverload, a deliberate admission-control drop).
constexpr bool is_malformed(RejectReason reason) noexcept {
  return reason != RejectReason::kGranted &&
         reason != RejectReason::kNoChannel &&
         reason != RejectReason::kFaulted &&
         reason != RejectReason::kShedOverload;
}

const char* to_string(RejectReason reason) noexcept;

/// Grant decision for one request, parallel to the schedule() input.
/// Invariant on every decision a scheduler returns: granted ⇔ reason ==
/// kGranted; kUndecided never escapes (the fuzz harness asserts both).
struct PortDecision {
  bool granted = false;
  Channel channel = kNone;
  RejectReason reason = RejectReason::kUndecided;

  static constexpr PortDecision grant(Channel c) noexcept {
    return PortDecision{true, c, RejectReason::kGranted};
  }
  static constexpr PortDecision reject(RejectReason r) noexcept {
    return PortDecision{false, kNone, r};
  }
};

/// Field validation shared by the per-port and distributed schedulers:
/// kGranted if `r` is well-formed for a k-wavelength port, else the reason.
RejectReason validate_request(const Request& r, std::int32_t k) noexcept;

class OutputPortScheduler {
 public:
  explicit OutputPortScheduler(ConversionScheme scheme,
                               Algorithm algorithm = Algorithm::kAuto,
                               Arbitration arbitration = Arbitration::kRoundRobin,
                               std::uint64_t seed = 1);

  const ConversionScheme& scheme() const noexcept { return scheme_; }
  /// The concrete algorithm after kAuto resolution.
  Algorithm algorithm() const noexcept { return algorithm_; }
  Arbitration arbitration() const noexcept { return arbitration_; }
  std::int32_t k() const noexcept { return scheme_.k(); }

  /// Converter pool size for kSparseBudgeted (conversions per slot this
  /// fiber may use). Ignored by the other algorithms, whose Figure-1
  /// architecture has a dedicated converter per channel.
  void set_converter_budget(std::int32_t budget);
  std::int32_t converter_budget() const noexcept { return converter_budget_; }

  /// Channel-level schedule (the matching kernel only, no identities),
  /// from the value-returning kernels: the paper's executable specification
  /// for FA / BFA / approx-BFA / full-range, the graph algorithms for the
  /// baselines.
  ChannelAssignment assign_channels(const RequestVector& requests,
                                    std::span<const std::uint8_t> available = {});

  /// Channel-level schedule through the production kernel path of
  /// schedule_into, under degraded hardware: folds the faults into the
  /// availability (core/health.hpp), runs the kernel on the surviving
  /// instance, and writes the converter-fault pre-grants back in. The result
  /// is a maximum matching of the fault-reduced request graph whenever the
  /// healthy kernel is maximum. A faulted fiber grants nothing.
  /// `degraded` requests the overload degeneration (see schedule_into).
  ChannelAssignment assign_channels(const RequestVector& requests,
                                    std::span<const std::uint8_t> available,
                                    const HealthMask& health,
                                    bool degraded = false);

  /// True iff `degraded` scheduling actually changes this port's kernel
  /// (exact circular BFA with d > 1 is the only O(dk) per-slot kernel).
  bool degradable() const noexcept {
    return algorithm_ == Algorithm::kBreakFirstAvailable &&
           scheme_.degree() > 1;
  }

  /// Full schedule of one slot: grant/reject + channel per request.
  /// `available` masks occupied channels (Section V); empty = all free.
  /// `health`, if non-null, degrades the fiber: a fiber fault rejects every
  /// request with kFaulted; channel/converter faults shrink the matching to
  /// the surviving request graph (still maximum on it).
  std::vector<PortDecision> schedule(std::span<const Request> requests,
                                     std::span<const std::uint8_t> available = {},
                                     const HealthMask* health = nullptr);

  /// As schedule, writing decisions into a caller-owned span (one entry per
  /// request): the fiber's shape checks, a one-fiber grouping pass, then
  /// schedule_groups, the port pass the slot pipeline runs. The paper's
  /// kernels (FA / BFA / approx-BFA / full-range) run on packed words and
  /// make zero heap allocations once the scratch arenas are warm, on healthy
  /// and faulted fibers alike; the baseline graph algorithms build their
  /// graphs afresh every call.
  /// `degraded` downgrades a degradable() kernel to its O(k) approximation:
  /// the exact circular BFA sweep (O(dk)) becomes the Section IV.C single
  /// break (O(k), within (d-1)/2 of maximum, Theorem 3). It composes with
  /// `health`, and the O(k) kernels ignore it.
  /// `avail_bits`, if sized mask_words(k), is the packed form of `available`
  /// (core/wave_mask.hpp layout) and lets the kernels skip the per-call
  /// byte→bit packing; any other size is ignored and the bytes are packed
  /// locally. Purely a fast path — decisions are unchanged.
  void schedule_into(std::span<const Request> requests,
                     std::span<const std::uint8_t> available,
                     const HealthMask* health,
                     std::span<PortDecision> decisions,
                     bool degraded = false,
                     std::span<const std::uint64_t> avail_bits = {});

  /// The port pass on requests already validated and grouped by wavelength
  /// (DistributedScheduler's grouping pass, or schedule_into's for its one
  /// fiber): wavelength w's group members[lo(w), ends[w]), lo(0) = base and
  /// lo(w) = ends[w-1], holds the indices into `decisions` of its requests in
  /// arrival order, each already at reject(kNoChannel). Runs the kernel on
  /// the group sizes (the paper's request vector) and writes each winner's
  /// grant in place. `available` and `health` must be of valid shape, and
  /// the fiber not cut. Returns the number of grants.
  std::int32_t schedule_groups(std::uint32_t base,
                               std::span<const std::uint32_t> ends,
                               std::span<std::uint32_t> members,
                               std::span<const std::uint8_t> available,
                               std::span<const std::uint64_t> avail_bits,
                               const HealthMask* health, bool degraded,
                               std::span<PortDecision> decisions);

  /// Pre-sizes the port's scratch — arbitration and kernel scratch, the
  /// fault fold, and schedule_into's grouping for up to `max_requests`
  /// requests — so even the first call allocates nothing (sim::Fleet's
  /// zero-allocation contract). Without it the scratch is sized on first use.
  void reserve_batch(std::size_t max_requests);

  /// Checkpoint of the port's mutable scheduling state (arbitration RNG and
  /// round-robin cursors — everything a replay needs beyond the config).
  void save_state(util::SnapshotWriter& w) const;
  void restore_state(util::SnapshotReader& r);

 private:
  /// Schedules `requests` into assign_scratch_. The paper's algorithms run
  /// their word kernel, with `health` (null = no faults) folded into the
  /// masks first; nonempty_bits_ must be the nonempty mask of `requests`.
  /// `avail_words` of any size other than mask_words(k) is replaced by
  /// `available` packed into avail_bits_. The graph baselines run
  /// assign_channels on the bytes, after apply_health when faulted.
  void run_kernel(const RequestVector& requests,
                  std::span<const std::uint8_t> available,
                  std::span<const std::uint64_t> avail_words,
                  const HealthMask* health, bool degraded);
  /// Hands assign_scratch_'s channels to the members of the groups laid
  /// out as in schedule_groups: FIFO / round-robin / random winners in one
  /// ascending walk over the granted channels.
  void arbitrate(std::uint32_t base, std::span<const std::uint32_t> ends,
                 std::span<std::uint32_t> members,
                 std::span<PortDecision> decisions);

  ConversionScheme scheme_;
  Algorithm algorithm_;
  Arbitration arbitration_;
  util::Rng rng_;
  std::int32_t converter_budget_;
  std::vector<std::uint32_t> rr_cursor_;  // per-wavelength round-robin state

  /// Sizes the per-call scratch below on the first call or in
  /// reserve_batch: constructing a port allocates only its state.
  void size_scratch();

  // Per-call scratch arenas. Vector capacity persists between calls, so the
  // steady state never allocates.
  RequestVector rv_scratch_;
  ChannelAssignment assign_scratch_{0};
  BfaScratch bfa_scratch_;
  // Arbitration scratch: each winning wavelength's next member position,
  // then the granted channels and the wavelengths that won one this call
  // (two masks).
  std::vector<std::uint32_t> grant_pos_;
  std::vector<std::uint64_t> won_bits_;
  // schedule_into's one-fiber grouping: per-wavelength group ends and the
  // grouped request indices.
  std::vector<std::uint32_t> group_end_;
  std::vector<std::uint32_t> members_;
  // Packed bit scratch for the word kernels (core/wave_mask.hpp layout).
  std::vector<std::uint64_t> avail_bits_;
  std::vector<std::uint64_t> nonempty_bits_;
  // The fault fold of a degraded fiber, created and sized on the first one:
  // healthy ports carry one null pointer. Arbitration keeps the unreduced
  // group sizes, because a pre-granted request still competes in its
  // wavelength group.
  std::unique_ptr<HealthFold> fold_;
};

}  // namespace wdm::core
