// The slotted N x N WDM optical interconnect (Figure 1).
//
// Structure per the paper: N input fibers are demultiplexed into Nk input
// wavelength channels; a bufferless switching fabric connects any input
// channel to the adjacent channels (per the conversion scheme) on any output
// fiber, where combiners + converters + a multiplexer recombine k channels
// per output fiber. Contention resolution is the distributed scheduler: one
// independent per-output-fiber schedule per slot.
//
// Connections may hold for multiple slots (Section V). Two policies:
//  * kNoDisturb  — ongoing connections keep their exact channel (optical
//    burst switching); new requests see only free channels;
//  * kRearrange  — ongoing connections may be reassigned to a different
//    channel each slot; they are re-scheduled first (always all placeable)
//    and new requests fill the remainder.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/availability.hpp"
#include "core/conversion.hpp"
#include "core/distributed.hpp"
#include "obs/telemetry.hpp"
#include "sim/admission.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "util/snapshot.hpp"

namespace wdm::sim {

enum class OccupiedPolicy : std::uint8_t { kNoDisturb, kRearrange };

/// Bounded retry-with-backoff for fault-rejected requests: a request denied
/// with RejectReason::kFaulted (hardware down, as opposed to contention) is
/// parked and re-offered `backoff_base * backoff_factor^(attempt-1)` slots
/// later, up to `max_retries` attempts, while the queue has room. Retries
/// re-enter scheduling ahead of fresh arrivals (they have waited longest).
struct RetryConfig {
  std::int32_t max_retries = 0;     ///< 0 disables retrying
  std::int32_t backoff_base = 1;    ///< slots before the first retry
  std::int32_t backoff_factor = 2;  ///< exponential backoff multiplier
  /// Queue bound; overflow is an overload shed (rejected + shed_overload —
  /// the queue being full is a load problem, not a hardware one).
  std::size_t queue_capacity = 1024;
};

/// Deadline-bounded degradation (rung two of the overload ladder): a
/// per-slot work budget that, when blown, downgrades the remaining exact
/// O(dk) ports to the O(k) single-break approximation (Theorem 3 bounds the
/// matching loss at (d-1)/2 per port). Hysteresis keeps the switch in
/// degraded mode until the offered work has stayed under budget for
/// `recovery_slots` consecutive slots, so a load hovering at the threshold
/// does not flap between kernels.
struct DegradeConfig {
  /// Op-count budget per slot, in "channel visits" (an exact-BFA port with
  /// pending requests costs d*k, every O(k) kernel costs k). Deterministic;
  /// what the tests drive. 0 disables.
  std::uint64_t op_budget = 0;
  /// Wall-clock budget per slot in nanoseconds (the production variant).
  /// 0 disables. Slot-granular: the step's wall time is measured once at the
  /// end of the slot, and an overrun feeds the hysteresis (latching degraded
  /// mode for the *next* slot) instead of downgrading ports mid-slot. The
  /// one-slot reaction lag buys bit-exact replay: each overrun is recorded
  /// as a sim::Trace event (set_deadline_log) and reapplied from the trace
  /// by sim::replay_from (set_deadline_script) without reading any clock.
  std::uint64_t slot_deadline_ns = 0;
  /// Consecutive under-budget slots required to return to exact scheduling.
  std::int32_t recovery_slots = 8;

  bool enabled() const noexcept {
    return op_budget > 0 || slot_deadline_ns > 0;
  }
};

struct InterconnectConfig {
  std::int32_t n_fibers = 8;  ///< N (square switch: N inputs, N outputs)
  core::ConversionScheme scheme = core::ConversionScheme::circular(8, 1, 1);
  core::Algorithm algorithm = core::Algorithm::kAuto;
  core::Arbitration arbitration = core::Arbitration::kRoundRobin;
  OccupiedPolicy policy = OccupiedPolicy::kNoDisturb;
  /// Per-fiber converter pool size for Algorithm::kSparseBudgeted; negative
  /// keeps the default (a dedicated converter per channel).
  std::int32_t converter_budget = -1;
  std::uint64_t seed = 1;
  /// Hardware fault injection (off by default). The injector's RNG stream
  /// is derived from `seed` by label, so enabling faults never perturbs the
  /// scheduler arbitration streams (or the caller's traffic) for a seed.
  FaultConfig faults;
  RetryConfig retry;
  /// Overload control plane (docs/ALGORITHMS.md §10); both rungs default
  /// off, and a config with both off schedules exactly as before (and keeps
  /// the zero-allocation steady state).
  AdmissionConfig admission;
  DegradeConfig degrade;
};

class Interconnect {
 public:
  explicit Interconnect(InterconnectConfig config);

  std::int32_t n_fibers() const noexcept { return config_.n_fibers; }
  std::int32_t k() const noexcept { return config_.scheme.k(); }
  const InterconnectConfig& config() const noexcept { return config_; }

  /// Advances one time slot: ages ongoing connections, schedules `arrivals`
  /// (the N per-output-fiber schedules run one after another on the calling
  /// thread), and occupies the granted channels. Returns the slot's
  /// accounting.
  SlotStats step(std::span<const core::SlotRequest> arrivals);

  /// Busy flags of the N*k input wavelength channels (fiber*k + wavelength)
  /// *for the upcoming slot* — i.e. connections that still hold after the
  /// next aging tick. Feed this to TrafficGenerator::next_slot so sources do
  /// not emit while their channel is mid-connection.
  std::vector<std::uint8_t> input_channel_busy() const;

  /// input_channel_busy() into a caller-owned buffer: resizes `out` to N*k
  /// and overwrites it. Capacity persists across slots, so a warm caller
  /// (the fleet's per-shard slot loop) performs no heap allocation.
  void input_channel_busy_into(std::vector<std::uint8_t>& out) const;

  /// Pre-sizes every per-port scheduling arena for the worst slot this
  /// fabric can be offered (N*k fresh arrivals plus full retry and ingress
  /// queues), so the step path performs zero heap allocations from the very
  /// first slot. Opt-in because the worst case is O(N^2 k) memory across
  /// ports: sim::Fleet calls it per shard — the zero-allocation serving
  /// contract — while one-shot experiment runs can skip it and absorb the
  /// rare high-water reallocation instead.
  void reserve_worst_case_scratch();

  /// Grants per output fiber in the most recent step (fairness accounting).
  const std::vector<std::uint64_t>& last_fiber_grants() const noexcept {
    return last_fiber_grants_;
  }

  std::uint64_t busy_output_channels() const noexcept;

  /// Flat N×k occupancy plane (1 = free), maintained incrementally on grant
  /// and expiry — the zero-rebuild availability input of the slot pipeline.
  /// Carries the packed bit plane too, so the masked kernels never re-pack.
  core::AvailabilityView availability_view() const noexcept {
    return core::AvailabilityView(avail_.data(), avail_bits_.data(),
                                  config_.n_fibers, config_.scheme.k());
  }

  /// The fault injector, or nullptr when the config enables no faults.
  const FaultInjector* fault_injector() const noexcept { return faults_.get(); }
  /// Requests currently parked in the retry queue.
  std::size_t retry_queue_depth() const noexcept { return retry_queue_.size(); }
  /// The admission control plane, or nullptr when disabled.
  const AdmissionControl* admission() const noexcept {
    return admission_.get();
  }
  /// Requests currently parked in the admission ingress queue.
  std::size_t ingress_queue_depth() const noexcept {
    return admission_ != nullptr ? admission_->queued() : 0;
  }
  /// True while degradation hysteresis holds the switch in O(k) mode.
  bool degraded_mode() const noexcept { return degraded_mode_; }
  /// Internal slot counter (slots stepped since construction or restore).
  std::uint64_t current_slot() const noexcept { return slot_; }

  /// Attaches (or detaches, with nullptr) a trace recorder, forwarded to the
  /// scheduler, fault injector, and admission plane. Telemetry is strictly an
  /// observer: it never alters decisions, RNG streams, or any checkpointed
  /// state, so a traced run and an untraced run of the same seed are
  /// bit-identical under sim::state_digest.
  void set_telemetry(obs::TraceRecorder* recorder) noexcept {
    telemetry_ = recorder;
    scheduler_.set_telemetry(recorder);
    if (faults_ != nullptr) faults_->set_telemetry(recorder);
    if (admission_ != nullptr) admission_->set_telemetry(recorder);
  }
  /// The attached recorder, or nullptr (checkpoint save/load events use it).
  obs::TraceRecorder* telemetry() const noexcept { return telemetry_; }

  /// Points the live deadline recorder at a trace's `deadline_overruns`
  /// vector (or detaches with nullptr): every slot whose wall clock overran
  /// `degrade.slot_deadline_ns` appends its slot index. The log is the
  /// replayable record of the run's one nondeterministic input.
  void set_deadline_log(std::vector<std::uint64_t>* log) noexcept {
    deadline_log_ = log;
  }
  /// Installs a recorded overrun script (strictly ascending slot indices):
  /// while set, deadline handling never reads the clock — a slot is treated
  /// as overrun exactly when its index appears in the script, which is what
  /// makes replay with wall-clock deadlines bit-exact. Detach with nullptr.
  void set_deadline_script(const std::vector<std::uint64_t>* script) noexcept;

  /// Checkpoint of the complete mutable state — occupancy plane, retry and
  /// ingress queues, per-port scheduler state, fault injector, degradation
  /// hysteresis — everything a bit-for-bit replay needs beyond the config
  /// (a geometry echo is stored and validated on restore). See
  /// sim/checkpoint.hpp for the framed stream-level API. Telemetry is never
  /// serialized: wall-clock trace state must not perturb the digest.
  void save_state(util::SnapshotWriter& w) const;
  void restore_state(util::SnapshotReader& r);

  /// The checkpoint payload is a fixed sequence of kSections independent
  /// sections (config echo, slot counter, output plane, input plane, retry
  /// queue, scheduler, faults, admission, hysteresis); save_state is exactly
  /// their concatenation in order. The delta-checkpoint layer
  /// (sim::CheckpointStore) serializes sections individually to diff them
  /// frame-to-frame. Occupancy is stored as absolute expiry slots, so a
  /// connection's section bytes do not change as it merely ages.
  static constexpr std::size_t kSections = 9;
  /// Serializes one section (0 <= section < kSections) into `w`.
  void save_section(std::size_t section, util::SnapshotWriter& w) const;

 private:
  struct PendingRetry {
    core::SlotRequest request;
    std::int32_t attempts = 0;     ///< retry attempts already consumed
    std::uint64_t due_slot = 0;    ///< re-offer at this internal slot
  };

  void step_no_disturb(std::span<const core::SlotRequest> arrivals,
                       const std::vector<core::HealthMask>* health,
                       SlotStats& stats, core::SlotBudget* budget);
  void step_rearrange(std::span<const core::SlotRequest> arrivals,
                      const std::vector<core::HealthMask>* health,
                      SlotStats& stats, core::SlotBudget* budget);
  /// True when channel u (flat index i) carries a connection that `mask`
  /// no longer allows: its fiber or channel is down, or its converter is
  /// down and the connection converts.
  bool connection_dead(const core::HealthMask& mask, std::size_t i,
                       std::size_t u) const;
  /// Tears down ongoing connections whose channel, converter, or fiber
  /// failed (kNoDisturb policy; kRearrange re-homes instead). Visits only
  /// `fibers`, the injector's changed_fibers(): every live connection
  /// satisfied the health of the previous step, so only a fiber whose
  /// health changed can hold a dead one.
  void teardown_faulted(const std::vector<core::HealthMask>& health,
                        std::span<const std::int32_t> fibers,
                        SlotStats& stats);
  /// Re-offers due retry-queue entries, ahead of fresh arrivals.
  void run_retries(const std::vector<core::HealthMask>* health,
                   SlotStats& stats, core::SlotBudget* budget);
  /// Refills the token buckets and schedules ingress-queue releases, after
  /// retries and before fresh arrivals (they have waited longer).
  void run_ingress(const std::vector<core::HealthMask>* health,
                   SlotStats& stats, core::SlotBudget* budget);
  /// Schedules new arrivals strict-priority class by class (§VI extension);
  /// single-class slots collapse to one scheduling pass.
  void schedule_new_arrivals(std::span<const core::SlotRequest> arrivals,
                             const std::vector<core::HealthMask>* health,
                             SlotStats& stats, core::SlotBudget* budget);
  enum class Defer : std::uint8_t {
    kParked,           ///< queued for retry (deferred_faulted)
    kBudgetExhausted,  ///< out of attempts -> rejected_faulted
    kQueueFull,        ///< retry queue at cap -> overload shed
  };
  /// Parks a fault-rejected request for retry if budget and queue capacity
  /// allow; otherwise says which limit was hit (the caller counts the drop).
  Defer try_defer(const core::SlotRequest& request, std::int32_t attempts,
                  SlotStats& stats);
  /// Counts a non-granted decision into `stats` (shared by every
  /// scheduling pass; `attempts` seeds the retry deferral).
  void count_rejection(const core::SlotRequest& request,
                       core::RejectReason reason, std::int32_t attempts,
                       SlotStats& stats);
  /// Degradation hysteresis update at the end of a budgeted slot;
  /// `deadline_overrun` is the slot's wall-clock verdict (measured live or
  /// scripted from a trace) and latches degraded mode by itself.
  void update_hysteresis(const core::SlotBudget& budget,
                         bool deadline_overrun);
  void release_input(std::int32_t input_fiber, core::Wavelength wavelength);
  void age_connections();
  void occupy(std::int32_t output_fiber, core::Channel channel,
              const core::SlotRequest& request, std::int32_t remaining);
  /// From-scratch rebuild of the occupancy masks; debug cross-check of the
  /// incrementally maintained `avail_` plane only.
  std::vector<std::vector<std::uint8_t>> availability() const;

  InterconnectConfig config_;
  core::DistributedScheduler scheduler_;
  std::unique_ptr<FaultInjector> faults_;  // null when faults disabled
  std::unique_ptr<AdmissionControl> admission_;  // null when disabled
  // SoA per-output-channel connection state, index fiber*k + channel
  // (replaces the old vector<vector<ChannelState>>): the aging sweep walks
  // one narrow column driven by the occupancy bits instead of striding
  // 24-byte structs, and expiry touches only the columns it must reset.
  std::vector<std::int32_t> out_remaining_;    // slots left, 0 = free
  std::vector<std::int32_t> out_input_fiber_;  // kNone when free
  std::vector<std::int32_t> out_wavelength_;   // kNone when free
  std::vector<std::uint64_t> out_id_;          // 0 when free
  std::vector<std::uint8_t> avail_;  // flat N×k plane, 1 = free; updated in
                                     // lockstep with the state (no rebuild)
  // Packed form of avail_, mask_words(k) words per fiber (wave_mask layout):
  // maintained in the same places as the byte plane, consumed by the masked
  // kernels through availability_view() and by the aging sweep.
  std::vector<std::uint64_t> avail_bits_;
  std::vector<std::int32_t> input_remaining_;         // [fiber*k + w]
  std::vector<std::uint64_t> last_fiber_grants_;
  std::vector<PendingRetry> retry_queue_;
  std::uint64_t slot_ = 0;  // internal slot counter (retry due times)
  // Degradation hysteresis: once a slot degrades, stay degraded until the
  // offered work has fit the budget for `recovery_slots` consecutive slots.
  bool degraded_mode_ = false;
  std::int32_t calm_slots_ = 0;
  obs::TraceRecorder* telemetry_ = nullptr;  // observer only, never serialized
  // Deadline replay plumbing (see set_deadline_log/set_deadline_script).
  // Neither is serialized: the log's content rides in the sim::Trace, and a
  // replay re-installs the script itself — after a restore mid-script the
  // cursor is recomputed from the restored slot counter.
  std::vector<std::uint64_t>* deadline_log_ = nullptr;
  const std::vector<std::uint64_t>* deadline_script_ = nullptr;
  std::size_t script_cursor_ = 0;

  // Reusable per-slot scratch: capacity persists across steps, so the
  // scheduling path of a steady-state slot performs no heap allocation.
  std::vector<core::SlotRequest> valid_;        // validated fresh arrivals
  std::vector<core::SlotRequest> batch_;        // one class / retry batch
  std::vector<PendingRetry> due_;               // retries due this slot
  std::vector<PendingRetry> retry_later_;       // retries still waiting
  std::vector<core::PortDecision> decisions_;   // scheduler output
  std::vector<core::SlotRequest> continuing_;   // kRearrange lifted conns
  std::vector<std::int32_t> continuing_remaining_;
  std::vector<core::SlotRequest> released_;     // ingress-queue drain batch
  std::vector<std::uint64_t> fiber_grants_in_;  // slot grants per INPUT fiber
                                                // (adaptive-admission feedback)
  std::vector<std::int32_t> charge_order_;      // degradation charge order,
                                                // rebuilt per slot (derived)
};

}  // namespace wdm::sim
