// The distributed scheduler over all N output fibers (Section I).
//
// The decisions for different output fibers are independent — no request
// belongs to two destination subsets — so a slot's schedule is N independent
// per-fiber schedules. In a switch these run side by side on per-fiber
// hardware (src/hw models one such port); here they run one after another on
// the caller's thread, and the per-slot work stays O(k) / O(dk) per fiber
// regardless of N (the property experiment E2 measures). Software
// parallelism is one level up: sim::Fleet runs whole fabrics, one per
// driver thread.
//
// A slot is partitioned once into SoA columns (core/slot_batch.hpp), and
// every fiber, healthy or faulted, runs the same port pass on them
// (OutputPortScheduler::schedule_batch_into): a fiber's hardware faults
// are folded into its availability words, not routed to another kernel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/availability.hpp"
#include "core/conversion.hpp"
#include "core/request.hpp"
#include "core/scheduler.hpp"
#include "core/slot_batch.hpp"
#include "obs/telemetry.hpp"

namespace wdm::core {

/// A request in flight through the whole interconnect: a Request plus its
/// destination fiber.
struct SlotRequest {
  std::int32_t input_fiber = 0;
  Wavelength wavelength = 0;
  std::int32_t output_fiber = 0;
  std::uint64_t id = 0;
  std::int32_t duration = 1;  ///< holding time in slots (Section V)
  std::int32_t priority = 0;  ///< QoS class, 0 = highest (§VI extension)
};

/// Per-slot work budget for deadline-bounded degradation. One SlotBudget is
/// shared by every schedule_slot_into call of a slot (retries, per-class
/// batches); `ops_charged` accumulates across them, so the budget bounds the
/// slot, not the call.
///
/// The op-count proxy is deterministic (the paper's complexity model, in
/// "channel visits"): scheduling a fiber with pending requests costs d*k for
/// the exact circular BFA sweep and k for every O(k) kernel (FA, the
/// single-break approximation, full-range). Ports whose exact cost no longer
/// fits are downgraded in charge order — deterministically, before any
/// scheduling work runs, so the same slot always degrades the same ports.
/// The wall-clock slot deadline lives one layer up
/// (sim::Interconnect judges the whole step against it and latches
/// force_degraded for the following slots), keeping this budget — and thus
/// every per-fiber decision — free of clock reads.
struct SlotBudget {
  std::uint64_t op_budget = 0;     ///< op-count ceiling per slot; 0 = none
  bool force_degraded = false;     ///< hysteresis hold: degrade every port
  /// Fairness rotation: the budget plan charges fibers in the rotated order
  /// (rotation, rotation+1, ... mod N) so a partially blown budget does not
  /// always degrade the same low-numbered fibers. Deterministic — the
  /// interconnect derives it from its slot counter, which is checkpointed.
  std::int32_t rotation = 0;
  /// Optional explicit charge order: N fiber indices, a permutation of
  /// [0, N). When non-null the budget plan charges fibers in this order
  /// instead of the rotated ring — the interconnect puts fibers with the
  /// deepest ingress backlog first, so the ports a blown budget downgrades
  /// are the ones with the least queued demand. Must be derived from
  /// checkpointed state only (replays rebuild it identically).
  const std::int32_t* charge_order = nullptr;

  // Outputs, accumulated across the slot's scheduling calls.
  std::uint64_t ops_charged = 0;        ///< cost actually charged
  std::uint64_t ops_exact_estimate = 0; ///< what exact-everywhere would cost
  std::int32_t degraded_ports = 0;      ///< degradable ports downgraded

  bool active() const noexcept {
    return op_budget > 0 || force_degraded;
  }
};

class DistributedScheduler {
 public:
  DistributedScheduler(std::int32_t n_output_fibers, ConversionScheme scheme,
                       Algorithm algorithm = Algorithm::kAuto,
                       Arbitration arbitration = Arbitration::kRoundRobin,
                       std::uint64_t seed = 1);

  std::int32_t n_output_fibers() const noexcept {
    return static_cast<std::int32_t>(ports_.size());
  }
  std::int32_t k() const noexcept { return scheme_.k(); }
  const ConversionScheme& scheme() const noexcept { return scheme_; }
  OutputPortScheduler& port(std::int32_t fiber);

  /// Sets the per-fiber converter pool size on every port (only meaningful
  /// with Algorithm::kSparseBudgeted).
  void set_converter_budget(std::int32_t budget);

  /// Pre-sizes every port's arbitration scratch for slots of up to
  /// `max_requests_per_slot` requests (the worst case is all of them at one
  /// port). Opt-in: costs O(N * max) memory up front, in exchange for a
  /// steady state with zero heap allocations from the very first slot —
  /// without it, rare per-port high-water marks still reallocate
  /// (OutputPortScheduler::reserve_batch).
  void reserve_batches(std::size_t max_requests_per_slot);

  /// Schedules one slot. `availability`, if non-null, holds one size-k mask
  /// per output fiber (occupied channels, Section V). `health`, if non-null,
  /// holds one HealthMask per output fiber (hardware faults): requests to a
  /// faulted fiber are rejected with RejectReason::kFaulted, and channel /
  /// converter faults shrink each fiber's matching to the surviving request
  /// graph while staying maximum on it. The result is parallel to
  /// `requests`.
  ///
  /// Robustness contract: malformed inputs (out-of-range fiber or wavelength,
  /// nonpositive duration, negative priority, wrong-shaped availability or
  /// health vectors) never throw — each affected request comes back rejected
  /// with a RejectReason, and well-formed requests in the same slot are
  /// scheduled normally.
  std::vector<PortDecision> schedule_slot(
      std::span<const SlotRequest> requests,
      const std::vector<std::vector<std::uint8_t>>* availability = nullptr,
      const std::vector<HealthMask>* health = nullptr);

  /// As schedule_slot, with a flat N×k availability plane and caller-owned
  /// decisions (one entry per request). Decision-for-decision identical to
  /// schedule_slot(); the fast path of the slot pipeline — the request
  /// partition is a counting-sort CSR over reusable arenas, so the steady
  /// state performs zero heap allocations. An empty view means all free; a
  /// view whose shape disagrees with (N, k) rejects every request with
  /// kBadAvailabilityMask, mirroring the nested-vector overload.
  /// `health` as in schedule_slot. `budget`, if non-null, applies deadline-bounded degradation: ports the
  /// slot's remaining budget cannot schedule exactly fall back to the O(k)
  /// approximation (SlotBudget above; a no-op for ports that are not
  /// degradable()). Grants stay a valid matching either way — degradation
  /// trades matching size (bounded by Theorem 3), never validity.
  void schedule_slot_into(std::span<const SlotRequest> requests,
                          AvailabilityView availability,
                          const std::vector<HealthMask>* health,
                          SlotBudget* budget,
                          std::span<PortDecision> decisions);

  /// Checkpoint of every port's mutable state (arbitration RNGs, round-robin
  /// cursors), in fiber order.
  void save_state(util::SnapshotWriter& w) const;
  void restore_state(util::SnapshotReader& r);

  /// Attaches (or detaches, with nullptr) a trace recorder. The scheduler
  /// records kStage spans for its partition and fan-out phases at kSlots
  /// detail, and one kFiberSchedule span per scheduled fiber at kFibers,
  /// recorded straight into the ring as the fan-out reaches that fiber, so
  /// tracing adds no allocations to the warm path. Telemetry never alters
  /// decisions or RNG streams, and none of it enters save_state.
  void set_telemetry(obs::TraceRecorder* recorder) noexcept {
    telemetry_ = recorder;
  }
  /// Slot index stamped on this scheduler's trace events (the scheduler has
  /// no slot counter of its own; the interconnect sets it each step).
  void set_trace_slot(std::uint64_t slot) noexcept { trace_slot_ = slot; }

 private:
  /// Shared core of both overloads: `row_of(fiber)` yields that fiber's
  /// size-k mask (or an empty span for "all free"), `bits_of(fiber)` the
  /// packed bit row (or an empty span when the caller has no bit plane).
  template <typename RowFn, typename BitsFn>
  void schedule_slot_impl(std::span<const SlotRequest> requests, RowFn&& row_of,
                          BitsFn&& bits_of,
                          const std::vector<HealthMask>* health,
                          SlotBudget* budget,
                          std::span<PortDecision> decisions);

  ConversionScheme scheme_;
  std::vector<OutputPortScheduler> ports_;

  // Reusable per-slot scratch: CSR partition of the slot's requests into the
  // N destination subsets (stable counting sort keeps arrival order within a
  // fiber), plus per-fiber decision staging. Capacity persists across slots.
  // The partition fills 4-byte columns rather than 24-byte Request structs,
  // since ids never reach the port pass.
  SlotBatchSoA soa_;
  std::vector<std::uint32_t> fiber_cursor_;  // fill cursors for the sort
  std::vector<PortDecision> csr_decisions_;  // per-fiber results, CSR order
  std::vector<std::uint8_t> degrade_flags_;  // per-fiber degradation plan

  obs::TraceRecorder* telemetry_ = nullptr;
  std::uint64_t trace_slot_ = 0;
};

}  // namespace wdm::core
