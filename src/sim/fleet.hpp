// Sharded fleet engine: F independent fabrics, one driver thread each, with
// an opt-in self-healing supervision layer (docs/ALGORITHMS.md §13).
//
// The paper's structural property — each output fiber's scheduler decides
// independently within a slot — extends one level up: whole fabrics (or
// fiber ranges of one huge fabric modeled as separate fabrics) share no
// state within a slot, so a fleet of F interconnects is embarrassingly
// parallel. Each shard owns a full sim::Interconnect with its own arena,
// availability plane, RNG streams, admission controller, traffic source,
// and metrics collector; nothing is shared between shards but the slot
// barrier, and the warm step path performs zero cross-shard heap
// allocation (tests/test_zero_alloc.cpp drives a 4-shard fleet).
//
// Threading model: a shard — one fabric on one driver thread — is the only
// unit of parallelism. Each shard has one persistent driver thread that
// runs the fabric's whole slot (its N per-fiber schedules one after
// another; the paper's per-fiber parallelism is hardware, modelled in
// src/hw). A driver optionally pins itself (util::cpu_affinity) to CPU
// i mod available_cpus(), then constructs the shard's state *on the pinned
// thread*, so first-touch page placement puts the shard's arenas on the
// driver's NUMA node.
//
// Determinism: shard i's master seed is a labeled substream of the fleet
// seed (or an explicit FleetConfig::shard_seeds entry), and every scheduling
// decision is pinning-independent, so
// fleet_digest() — FNV-1a64 over the ordered shard state digests — is a
// bit-exact fingerprint of (config, seed, slots stepped). Checkpoint and
// resume run one sim::CheckpointStore chain per shard under
// <dir>/shard-<i>/ (docs/ALGORITHMS.md §12).
//
// Supervision (opt-in, off by default — the supervised-off path is
// bit-identical to an unsupervised fleet and test-pinned): the same
// shard-independence that makes the fleet parallel makes shard failures
// isolatable. With SupervisionConfig::enabled, a shard whose driver throws
// is quarantined instead of killing the fleet: the slot barrier degrades to
// the surviving shards, and the supervisor restarts the shard — fresh state
// rebuilt from its derived seed, recovered from its <dir>/shard-<i>/
// checkpoint chain via recover_latest (or replayed from slot 0 when no
// chain exists), then replayed forward to the fleet slot so it rejoins the
// barrier in lockstep, bit-identical to a shard that never crashed. Restarts
// draw from a bounded per-shard budget with doubling backoff (in fleet
// slots); an exhausted budget parks the shard in kFailed permanently. An
// optional barrier watchdog detects a stuck/livelocked driver (no slot
// progress within watchdog_ns), abandons it, and drives the same
// quarantine/restart path on a replacement driver thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint_store.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/traffic.hpp"

namespace wdm::sim {

/// Supervision state of one shard. Numeric values are stable — they are
/// exported as the wdm_shard_health{shard="i"} gauge.
enum class ShardHealth : std::uint8_t {
  kServing = 0,      ///< stepping in lockstep with the barrier
  kQuarantined = 1,  ///< crashed or stalled; excluded until restart-eligible
  kRestarting = 2,   ///< rebuilding from checkpoint + replaying to the barrier
  kFailed = 3,       ///< restart budget exhausted; permanently out
};

const char* to_string(ShardHealth health) noexcept;

/// Scripted shard-level fault kinds (FaultInjector's idea one level up:
/// instead of failing fabric hardware, fail the serving machinery itself).
enum class ShardFaultKind : std::uint8_t {
  kCrash,  ///< the driver throws ShardCrashInjected before stepping the slot
  kStall,  ///< the driver blocks stall_ns before stepping the slot
};

/// One scripted shard fault, fired at most once, immediately before the
/// shard steps fleet slot `slot`. Replays after a restart do NOT refire it —
/// a consumed event stays consumed, so a recovered shard replays clean.
struct ShardFaultEvent {
  std::size_t shard = 0;
  std::uint64_t slot = 0;
  ShardFaultKind kind = ShardFaultKind::kCrash;
  std::uint64_t stall_ns = 0;  ///< kStall only: how long the driver blocks
};

/// What a scripted kCrash injection throws (and what tests catch).
struct ShardCrashInjected : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SupervisionConfig {
  /// Off by default: an unsupervised fleet parks errored shards and
  /// rethrows at the barrier exactly as before (bit-identical, test-pinned).
  bool enabled = false;
  /// Restart attempts per shard over the fleet's lifetime (successful or
  /// not); once consumed the shard goes kFailed permanently. 0 means a
  /// crashed shard fails immediately (quarantine-only, no healing).
  std::uint32_t restart_budget = 3;
  /// Fleet slots a quarantined shard waits before its first restart
  /// attempt; doubles per consumed attempt. 0 restarts immediately (still
  /// within the same barrier round when the target allows).
  std::uint64_t backoff_slots = 2;
  /// Barrier watchdog: a kServing shard that makes no slot progress for
  /// this long while the barrier waits is declared stuck, abandoned, and
  /// quarantined (a replacement driver thread heals it). 0 disables the
  /// watchdog. Restarting shards are exempt (recovery does file IO).
  std::uint64_t watchdog_ns = 0;
};

struct FleetConfig {
  /// Independent fabrics served by this fleet.
  std::size_t shards = 1;
  /// Threads per shard, the driver included. A shard runs on exactly one
  /// thread, so the only accepted value is 1; the constructor rejects any
  /// other.
  std::size_t threads_per_shard = 1;
  /// Pin shard i's driver to logical CPU i mod available_cpus(). A
  /// performance hint only: decisions and digests are identical either way.
  bool pin_cpus = false;
  /// Fleet master seed; shard i's seed is a labeled substream of it.
  std::uint64_t seed = 1;
  /// Explicit per-shard master seeds (size must equal `shards` when
  /// nonempty); empty derives them from `seed`. Changing any one entry
  /// changes exactly that shard's streams and thus the fleet digest.
  std::vector<std::uint64_t> shard_seeds;
  /// Every shard runs this fabric geometry/policy (the per-shard scheduler
  /// seed inside it is overwritten from the shard's master seed).
  InterconnectConfig interconnect;
  /// Every shard runs this traffic model on its own generator stream.
  TrafficConfig traffic;
  /// Self-healing layer (off by default; see the header comment).
  SupervisionConfig supervision;
  /// Scripted shard crash/stall injection for tests and chaos drills.
  /// Independent of supervision: an unsupervised fleet treats an injected
  /// crash like any other shard error (parked, rethrown at the barrier).
  std::vector<ShardFaultEvent> shard_faults;
  /// Always-on per-shard flight recorder (src/obs/flight_recorder.hpp): a
  /// bounded trace ring + stage histograms each driver flies with, the
  /// source of post-mortem black boxes. Ring and histograms are
  /// preallocated, so the warm step path stays zero-allocation with it on;
  /// it is an observer only — digests are identical with it off.
  obs::FlightRecorderConfig flight;
  /// Root directory for black-box dumps: on quarantine, restart-budget
  /// exhaustion, or watchdog abandonment the shard's post-mortem lands in
  /// <blackbox_dir>/blackbox/shard-<i>-slot-<s>/ (trace.json, metrics.prom,
  /// blackbox.json), written off the serving drivers by a dedicated writer
  /// thread. Empty disables dumping (the flight recorder still records).
  std::string blackbox_dir;
};

/// Per-shard recovery outcomes of Fleet::resume_from.
struct FleetRecovery {
  bool recovered = false;      ///< every shard restored and agreed on a slot
  std::uint64_t slot = 0;      ///< common restored slot counter
  std::vector<RecoveryReport> shards;  ///< one report per shard, in order
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const FleetConfig& config() const noexcept { return config_; }
  std::size_t shards() const noexcept { return shards_.size(); }
  /// Every thread the fleet drives: one driver per shard. Watchdog
  /// replacements are not counted — an abandoned driver is winding down
  /// while its replacement serves.
  std::size_t total_threads() const noexcept { return shards_.size(); }
  /// True when pinning was requested and every shard applied its CPU mask.
  /// False under the portable no-op fallback — callers should surface that
  /// (examples/simulate warns; wdm_fleet_pinned exports it).
  bool pinned() const noexcept { return pinned_; }
  /// Shard i's master seed (derived or explicit).
  std::uint64_t shard_seed(std::size_t shard) const;

  /// Advances every shard exactly one slot and waits for all of them (the
  /// slot barrier). Zero heap allocation once warm. Under supervision the
  /// barrier covers serving shards only; without it a shard error rethrows.
  void step();
  /// Advances every shard `slots` slots with one barrier at the end —
  /// shards free-run between barriers, which is legal because they share no
  /// state; bit-identical to calling step() `slots` times.
  void run(std::uint64_t slots);

  /// Slots every shard has advanced since construction (or resume).
  std::uint64_t current_slot() const noexcept { return slot_; }
  /// Sum of serving-shard SlotStats for the most recent slot (valid after
  /// step(); after run() it covers the final slot only).
  const SlotStats& last_step_stats() const noexcept { return last_stats_; }
  /// Fresh requests offered / granted across all shards since construction,
  /// resume, or reset_counters(). A restarted shard re-accumulates from its
  /// recovery slot (metrics are observers, never checkpointed).
  std::uint64_t total_arrivals() const noexcept;
  std::uint64_t total_granted() const noexcept;
  /// Discards accumulated metrics and totals (warm-up discard). State
  /// digests are unaffected: metrics are observers, never simulation state.
  void reset_counters();

  const Interconnect& shard_interconnect(std::size_t shard) const;
  const MetricsCollector& shard_metrics(std::size_t shard) const;
  /// Merged view across shards via MetricsCollector::merge (exact: the
  /// accumulators are designed mergeable). Built on demand — not hot path.
  MetricsCollector merged_metrics() const;

  /// FNV-1a64 over the ordered shard state digests — equal iff every
  /// shard's checkpoint payload is byte-identical. Thread-count- and
  /// pinning-invariant; any shard seed change changes it. A shard with no
  /// live state (kFailed after a watchdog abandonment) contributes a fixed
  /// dead marker instead of a state digest.
  std::uint64_t fleet_digest() const;

  // --- supervision introspection (cold; each takes the fleet lock) ---

  ShardHealth shard_health(std::size_t shard) const;
  /// Successful restarts (quarantine -> rejoin) of shard i so far.
  std::uint64_t shard_restarts(std::size_t shard) const;
  /// Successful restarts across all shards.
  std::uint64_t total_restarts() const;
  /// Shards currently in ShardHealth::kServing.
  std::size_t serving_shards() const;
  /// Checkpoint frames discarded (torn/corrupt/unchained) across every
  /// resume_from and every supervised restart recovery so far.
  std::uint64_t recovery_discards() const;

  /// Shard i's flight recorder — null when FleetConfig::flight.enabled is
  /// false, or briefly while a watchdog-abandoned shard's replacement is
  /// still rebuilding. Driver-owned: read it only between barriers (the
  /// acquire/release pairing on the slot barrier makes that race-free).
  const obs::FlightRecorder* shard_flight(std::size_t shard) const;
  /// Black-box dumps fully persisted so far (0 without a blackbox_dir).
  std::uint64_t black_box_dumps() const;
  /// Blocks until every dump enqueued so far reached disk. A
  /// watchdog-abandoned driver still winding down enqueues its dump only
  /// when its thread is joined (fleet destruction) — that dump is
  /// guaranteed on disk at destructor return, not by an earlier flush.
  void flush_black_boxes();

  /// Attaches (or detaches) a trace recorder for supervision events
  /// (kShardQuarantine / kShardRestart / kShardRejoin / kShardFailed).
  /// Events are staged by the drivers and drained into the recorder on the
  /// caller thread at the end of each step()/run(), preserving the
  /// recorder's single-writer contract. Observer only: never serialized.
  void set_telemetry(obs::TraceRecorder* recorder);

  /// Opens one CheckpointStore chain per shard under
  /// <policy.dir>/shard-<i>/ (cadence fields taken from `policy`). Under
  /// supervision this directory is also where restarted shards recover from.
  void open_checkpoints(const CheckpointPolicy& policy);
  /// Writes one frame per shard (interconnect + traffic state). Requires
  /// open_checkpoints. All shards are written at the same fleet slot, so a
  /// later resume finds agreeing chains. Quarantined/failed shards are
  /// skipped (their chains keep the last healthy frame); their chains
  /// re-agree with the fleet after the shard rejoins and the next frame —
  /// always a fresh full — is written.
  void write_checkpoint();
  /// Recovers every shard's newest verified chain from <dir>/shard-<i>/.
  /// Succeeds only when all shards recover and agree on the restored slot;
  /// on success the fleet continues from that slot. On failure the fleet
  /// state is unspecified — rebuild it (cheap) before trusting digests.
  FleetRecovery resume_from(const std::string& dir);

 private:
  struct Shard;

  /// One restart attempt's outcome, kept for the shard's black box: the
  /// manifest's restart_history explains how the shard got where it is.
  struct RestartRecord {
    std::uint32_t attempt = 0;         ///< 1-based attempt number
    std::uint64_t began_at_slot = 0;   ///< fleet target when it began
    bool ok = false;                   ///< rejoined the barrier
    std::uint64_t recovered_slot = 0;  ///< checkpoint slot recovered from
    std::uint64_t discards = 0;        ///< frames discarded during recovery
  };

  /// Per-shard supervision record, guarded by mu_.
  struct Supervisor {
    ShardHealth health = ShardHealth::kServing;
    std::uint32_t attempts = 0;        ///< restart attempts consumed
    std::uint64_t restarts = 0;        ///< successful rejoins
    std::uint64_t eligible_target = 0; ///< restart once target_slots_ >= this
    std::vector<RestartRecord> history;        ///< every attempt, in order
    std::vector<std::string> discard_reasons;  ///< recovery rejects (bounded)
  };

  void driver_main(std::size_t index, bool replacement);
  void maybe_pin(std::size_t index, Shard& shard);
  /// Builds (or rebuilds) the shard's heavy state from its derived seeds on
  /// the calling thread (first-touch page placement follows the caller).
  void build_shard_state(std::size_t index, Shard& shard);
  void run_shard_slot(std::size_t index, Shard& shard);
  /// Fires any scripted, unconsumed fault for (shard, next slot).
  void maybe_inject_fault(std::size_t index, Shard& shard);
  /// One restart attempt: rebuild, recover from the shard's chain (or slot
  /// 0), replay to the current target, rejoin — or re-quarantine / fail.
  /// Enters and leaves with `lock` held.
  void attempt_restart(std::unique_lock<std::mutex>& lock, std::size_t index,
                       Shard& shard);
  /// Crash path: consumes the exception under supervision (quarantine or
  /// fail), or parks it for the barrier rethrow when unsupervised.
  void handle_shard_error(std::size_t index, Shard& shard,
                          std::exception_ptr error);
  /// Watchdog path: abandons the stuck shard's state and driver, installs a
  /// fresh Shard shell, and (budget permitting) spawns a replacement driver.
  /// Requires mu_.
  void quarantine_stuck_shard(std::size_t index);
  /// Barrier predicate: every shard the barrier still covers reached the
  /// target. Requires mu_.
  bool barrier_satisfied() const;
  std::string shard_checkpoint_dir(std::size_t index) const;
  /// Stages a supervision trace event (no-op without a recorder). Requires
  /// mu_.
  void stage_event(obs::EventKind kind, std::uint64_t slot, std::size_t shard,
                   std::uint64_t b, std::uint8_t detail);
  /// Assembles shard `index`'s post-mortem from a supervisor snapshot: ring
  /// snapshot + trigger event, rendered metrics, JSON manifest. Must run on
  /// the thread that owns the shard's trace ring; needs no lock beyond the
  /// snapshot the caller took.
  obs::BlackBoxDump make_black_box(std::size_t index, Shard& shard,
                                   const char* reason, bool watchdog,
                                   std::uint64_t at, bool failed,
                                   const Supervisor& sup) const;
  /// make_black_box + enqueue on the writer (no-op without a blackbox_dir
  /// or flight recorder). Requires mu_ (reads supervisors_[index]).
  void enqueue_black_box(std::size_t index, Shard& shard, const char* reason,
                         bool watchdog, std::uint64_t at, bool failed);
  /// Releases the drivers to advance `slots` more slots and blocks until
  /// the barrier is satisfied (running the watchdog while it waits);
  /// unsupervised, rethrows the first shard error.
  void advance(std::uint64_t slots);
  void aggregate_last_stats();
  /// Constructor failure path: joins every driver, then rethrows `error`.
  [[noreturn]] void stop_drivers_and_rethrow(std::exception_ptr error);

  FleetConfig config_;
  bool pinned_ = false;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> drivers_;
  std::uint64_t slot_ = 0;
  SlotStats last_stats_;
  // Scripted fault bookkeeping: per-shard indices into config_.shard_faults
  // (empty vector = injection-free fast path) and one consumed flag per
  // event. Atomic because a watchdog replacement may replay past a slot
  // whose event the abandoned driver consumed moments earlier.
  std::vector<std::vector<std::size_t>> shard_fault_index_;
  std::unique_ptr<std::atomic<bool>[]> fault_fired_;

  // Slot-barrier plumbing: the caller publishes a new cumulative target
  // (absolute fleet slots), each driver catches its shard up and reports;
  // the barrier is satisfied when every covered shard's done counter
  // reaches the target. Startup reuses the same condition variables.
  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes drivers (target bump, stop)
  std::condition_variable done_cv_;  // wakes the caller (barrier satisfied)
  std::uint64_t target_slots_ = 0;
  std::size_t ready_ = 0;
  bool stop_ = false;

  // Supervision state (guarded by mu_ unless noted).
  std::vector<Supervisor> supervisors_;
  std::vector<std::unique_ptr<Shard>> retired_;  // abandoned shard states
  std::vector<std::uint64_t> watchdog_progress_; // last-seen done counters
  std::uint64_t recovery_discards_ = 0;
  std::optional<CheckpointPolicy> checkpoint_policy_;
  obs::TraceRecorder* telemetry_ = nullptr;
  std::vector<obs::TraceEvent> pending_obs_;
  /// Black-box sink (null without a blackbox_dir). Set once in the
  /// constructor, before any driver spawns; destroyed after ~Fleet joins
  /// every driver, so a winding-down abandoned driver can still enqueue.
  std::unique_ptr<obs::BlackBoxWriter> blackbox_;
};

}  // namespace wdm::sim
