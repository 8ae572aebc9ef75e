#include "sim/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <sstream>

#include "sim/checkpoint.hpp"
#include "sim/obs_export.hpp"
#include "util/check.hpp"
#include "util/cpu_affinity.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"
#include "util/timer.hpp"

namespace wdm::sim {

namespace {
/// Label base for shard master-seed substreams (see util::derive_stream_seed):
/// "FLEET" + shard index. Labeled, not sequential, so changing the shard
/// count never shifts the seeds of the shards that already existed.
constexpr std::uint64_t kFleetShardLabel = 0x464c454554ULL;
/// fleet_digest contribution of a shard with no live state (kFailed after a
/// watchdog abandonment): a fixed dead marker, never a valid state digest.
constexpr std::uint64_t kDeadShardDigest = 0xFA11EDFA11EDFA11ULL;
/// Backoff doubling cap: 2^20 fleet slots is already "never" for any test
/// or drill horizon; capping keeps the shift well-defined.
constexpr std::uint32_t kMaxBackoffDoublings = 20;
}  // namespace

const char* to_string(ShardHealth health) noexcept {
  switch (health) {
    case ShardHealth::kServing: return "serving";
    case ShardHealth::kQuarantined: return "quarantined";
    case ShardHealth::kRestarting: return "restarting";
    case ShardHealth::kFailed: return "failed";
  }
  return "?";
}

/// Everything one shard owns. Constructed inside the (optionally pinned)
/// driver thread so first-touch page placement follows the pin, and
/// destroyed by that same thread on shutdown — except a watchdog-abandoned
/// shard, which is parked in retired_ until its stuck driver winds down.
struct Fleet::Shard {
  std::unique_ptr<Interconnect> interconnect;
  std::unique_ptr<TrafficGenerator> traffic;
  std::unique_ptr<MetricsCollector> metrics;
  std::unique_ptr<CheckpointStore> store;  // null until open_checkpoints
  /// Always-on trace ring + stage histograms, created once per shard index
  /// and deliberately NOT reset by restarts — a post-crash black box must
  /// show the slots leading up to the crash, not an empty ring.
  std::unique_ptr<obs::FlightRecorder> flight;
  /// Post-mortem handoff for watchdog abandonment: the watchdog may not
  /// touch this shard's ring (its stuck driver may still be writing it), so
  /// it snapshots the supervisor here under mu_ and the ring's owner — the
  /// winding-down driver itself — assembles the dump at join time.
  struct PendingDump {
    const char* reason = "watchdog-stall";
    std::uint64_t slot = 0;
    bool failed = false;  ///< budget exhausted at abandonment
    Supervisor sup;       ///< supervisor snapshot at abandonment
  };
  std::unique_ptr<PendingDump> pending_dump;  // guarded by mu_
  // Reusable per-slot scratch — the zero-allocation warm path.
  std::vector<std::uint8_t> busy;
  std::vector<core::SlotRequest> arrivals;
  SlotStats last;            // most recent slot's accounting
  std::uint64_t total_arrivals = 0;
  std::uint64_t total_granted = 0;
  bool pinned = false;
  std::exception_ptr error;  // first failure; rethrown at the barrier
                             // (unsupervised mode only)
  /// Absolute fleet slots this shard has completed. Written by the driver
  /// outside the lock (one release store per slot — the zero-alloc warm
  /// path), read with acquire by the barrier predicate and the watchdog, so
  /// a reader that observes done==target also observes every non-atomic
  /// field (last, totals, metrics) the driver wrote before publishing.
  std::atomic<std::uint64_t> done{0};
  /// Set by the watchdog when this shard's driver is declared stuck: the
  /// driver must discard its in-flight round and exit; a replacement owns
  /// the shard index from now on.
  std::atomic<bool> abandoned{false};
};

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  WDM_CHECK_MSG(config_.shards > 0, "a fleet needs at least one shard");
  WDM_CHECK_MSG(config_.threads_per_shard == 1,
                "a shard runs on exactly one driver thread "
                "(threads_per_shard must be 1)");
  WDM_CHECK_MSG(
      config_.shard_seeds.empty() ||
          config_.shard_seeds.size() == config_.shards,
      "shard_seeds must be empty or name a seed for every shard");
  for (const ShardFaultEvent& event : config_.shard_faults) {
    WDM_CHECK_MSG(event.shard < config_.shards,
                  "shard_faults names a shard the fleet does not have");
  }

  seeds_.resize(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    seeds_[i] = config_.shard_seeds.empty()
                    ? util::derive_stream_seed(config_.seed,
                                               kFleetShardLabel + i)
                    : config_.shard_seeds[i];
  }

  shard_fault_index_.resize(config_.shards);
  for (std::size_t e = 0; e < config_.shard_faults.size(); ++e) {
    shard_fault_index_[config_.shard_faults[e].shard].push_back(e);
  }
  if (!config_.shard_faults.empty()) {
    fault_fired_ =
        std::make_unique<std::atomic<bool>[]>(config_.shard_faults.size());
    for (std::size_t e = 0; e < config_.shard_faults.size(); ++e) {
      fault_fired_[e].store(false, std::memory_order_relaxed);
    }
  }

  supervisors_.resize(config_.shards);
  watchdog_progress_.assign(config_.shards, 0);

  if (!config_.blackbox_dir.empty()) {
    blackbox_ = std::make_unique<obs::BlackBoxWriter>(config_.blackbox_dir);
  }

  shards_.resize(config_.shards);
  drivers_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    drivers_.emplace_back([this, i] { driver_main(i, /*replacement=*/false); });
  }
  // Wait for every driver to pin, build its shard, and check in; surface
  // the first construction failure as our own. Supervision covers serving,
  // not bring-up: a shard that cannot even construct is a config error.
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [this] { return ready_ == shards_.size(); });
  bool all_pinned = config_.pin_cpus;
  for (auto& shard : shards_) {
    if (shard->error) {
      lock.unlock();
      stop_drivers_and_rethrow(shard->error);
    }
    all_pinned = all_pinned && shard->pinned;
  }
  pinned_ = all_pinned;
}

void Fleet::stop_drivers_and_rethrow(std::exception_ptr error) {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& d : drivers_) {
    if (d.joinable()) d.join();
  }
  std::rethrow_exception(error);
}

Fleet::~Fleet() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // A driver stuck in a genuinely unbounded livelock would block this join
  // forever: the watchdog restores *service* by replacing it, it cannot
  // reclaim the thread. Scripted stalls are finite, so drills and tests
  // always wind down.
  for (auto& d : drivers_) {
    if (d.joinable()) d.join();
  }
}

void Fleet::maybe_pin(std::size_t index, Shard& shard) {
  if (!config_.pin_cpus) return;
  // One CPU per driver, side by side; wraps when shards exceed the CPUs.
  const int cpu = static_cast<int>(index % util::available_cpus());
  shard.pinned = util::pin_current_thread(std::span<const int>(&cpu, 1));
}

void Fleet::build_shard_state(std::size_t index, Shard& shard) {
  // Per-shard seeding mirrors run_simulation: one seeder per shard, the
  // interconnect and traffic streams drawn from it in a fixed order.
  util::Rng seeder(seeds_[index]);
  InterconnectConfig icfg = config_.interconnect;
  icfg.seed = seeder.next();
  const std::uint64_t traffic_seed = seeder.next();
  shard.interconnect = std::make_unique<Interconnect>(icfg);
  // The fleet's serving contract is zero warm-path allocation, so pay the
  // worst-case arena memory up front rather than absorbing rare per-port
  // high-water reallocations mid-serve.
  shard.interconnect->reserve_worst_case_scratch();
  // The flight recorder outlives restarts (the ring keeps pre-crash
  // history); a rebuilt interconnect just re-attaches to it. Observer only:
  // digests are identical with it on or off.
  if (config_.flight.enabled && shard.flight == nullptr) {
    shard.flight = std::make_unique<obs::FlightRecorder>(config_.flight);
  }
  if (shard.flight != nullptr) {
    shard.interconnect->set_telemetry(&shard.flight->recorder());
  }
  shard.traffic = std::make_unique<TrafficGenerator>(
      icfg.n_fibers, icfg.scheme.k(), config_.traffic, traffic_seed);
  shard.metrics =
      std::make_unique<MetricsCollector>(icfg.n_fibers, icfg.scheme.k());
  // Worst-case scratch: one busy flag and at most one fresh arrival per
  // input channel per slot, so the warm slot loop never reallocates.
  const std::size_t channels = static_cast<std::size_t>(icfg.n_fibers) *
                               static_cast<std::size_t>(icfg.scheme.k());
  shard.busy.reserve(channels);
  shard.arrivals.reserve(channels);
}

void Fleet::driver_main(std::size_t index, bool replacement) {
  Shard* self = nullptr;
  if (!replacement) {
    auto shard = std::make_unique<Shard>();
    maybe_pin(index, *shard);
    try {
      build_shard_state(index, *shard);
    } catch (...) {
      shard->error = std::current_exception();
    }
    self = shard.get();
    {
      const std::lock_guard lock(mu_);
      shards_[index] = std::move(shard);
      ++ready_;
    }
    done_cv_.notify_all();
  } else {
    // Watchdog replacement: the caller already installed a fresh Shard
    // shell; this thread pins like the original driver and fills it via the
    // restart path (so arenas are first-touched on the replacement thread).
    {
      const std::lock_guard lock(mu_);
      self = shards_[index].get();
    }
    maybe_pin(index, *self);
  }

  std::unique_lock lock(mu_);
  const bool supervised = config_.supervision.enabled;
  for (;;) {
    cv_.wait(lock, [&] {
      if (stop_ || self->abandoned.load(std::memory_order_relaxed)) {
        return true;
      }
      if (!supervised) {
        return self->done.load(std::memory_order_relaxed) < target_slots_;
      }
      const Supervisor& sup = supervisors_[index];
      switch (sup.health) {
        case ShardHealth::kServing:
          return self->done.load(std::memory_order_relaxed) < target_slots_;
        case ShardHealth::kQuarantined:
          return sup.attempts < config_.supervision.restart_budget &&
                 sup.eligible_target <= target_slots_;
        case ShardHealth::kRestarting:
          return true;  // claimed by the watchdog for this thread
        case ShardHealth::kFailed:
          return false;  // parked until stop
      }
      return false;
    });
    if (stop_ || self->abandoned.load(std::memory_order_relaxed)) break;

    if (supervised && supervisors_[index].health != ShardHealth::kServing) {
      attempt_restart(lock, index, *self);
      done_cv_.notify_all();
      continue;
    }

    const std::uint64_t target = target_slots_;
    lock.unlock();
    if (self->error == nullptr) {
      try {
        while (self->done.load(std::memory_order_relaxed) < target &&
               !self->abandoned.load(std::memory_order_relaxed)) {
          run_shard_slot(index, *self);
          // Release-publish: pairs with the acquire loads in
          // barrier_satisfied() so the advance() caller reading
          // done==target also sees this slot's non-atomic shard state.
          self->done.fetch_add(1, std::memory_order_release);
        }
      } catch (...) {
        handle_shard_error(index, *self, std::current_exception());
      }
    }
    lock.lock();
    if (!supervised && self->error != nullptr) {
      // An errored unsupervised shard stops stepping but keeps the barrier.
      self->done.store(target, std::memory_order_release);
    }
    done_cv_.notify_all();
  }
  // A watchdog-abandoned driver assembles the post-mortem the watchdog
  // could not take for it (see Shard::PendingDump) before tearing down on
  // the owning thread (symmetric with construction). The capture runs here,
  // off the serving path — the replacement driver owns the index already —
  // and the writer thread does the disk IO.
  std::unique_ptr<Shard::PendingDump> dump = std::move(self->pending_dump);
  lock.unlock();
  if (dump != nullptr && blackbox_ != nullptr && self->flight != nullptr) {
    blackbox_->enqueue(make_black_box(index, *self, dump->reason,
                                      /*watchdog=*/true, dump->slot,
                                      dump->failed, dump->sup));
  }
}

void Fleet::maybe_inject_fault(std::size_t index, Shard& shard) {
  const std::vector<std::size_t>& events = shard_fault_index_[index];
  if (events.empty()) return;
  const std::uint64_t slot = shard.done.load(std::memory_order_relaxed);
  for (const std::size_t e : events) {
    const ShardFaultEvent& event = config_.shard_faults[e];
    if (event.slot != slot) continue;
    if (fault_fired_[e].exchange(true, std::memory_order_acq_rel)) continue;
    if (event.kind == ShardFaultKind::kStall) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(event.stall_ns));
    } else {
      throw ShardCrashInjected("injected shard crash (scripted), shard " +
                               std::to_string(index) + " at slot " +
                               std::to_string(slot));
    }
  }
}

void Fleet::run_shard_slot(std::size_t index, Shard& shard) {
  maybe_inject_fault(index, shard);
  shard.interconnect->input_channel_busy_into(shard.busy);
  shard.traffic->next_slot_into(shard.busy, shard.arrivals);
  shard.last = shard.interconnect->step(
      std::span<const core::SlotRequest>(shard.arrivals));
  shard.total_arrivals += shard.last.arrivals;
  shard.total_granted += shard.last.granted;
  shard.metrics->record_slot(shard.last);
  const auto& grants = shard.interconnect->last_fiber_grants();
  for (std::int32_t fiber = 0; fiber < shard.interconnect->n_fibers();
       ++fiber) {
    shard.metrics->record_fiber_grants(
        fiber, grants[static_cast<std::size_t>(fiber)]);
  }
}

void Fleet::handle_shard_error(std::size_t index, Shard& shard,
                               std::exception_ptr error) {
  const std::lock_guard lock(mu_);
  if (!config_.supervision.enabled) {
    shard.error = error;
    // Unsupervised crashes still leave forensics: advance() will rethrow,
    // and the black box explains what the shard was doing when it died.
    enqueue_black_box(index, shard, "crash-unsupervised", /*watchdog=*/false,
                      shard.done.load(std::memory_order_relaxed),
                      /*failed=*/false);
    return;
  }
  if (shard.abandoned.load(std::memory_order_relaxed)) {
    // A watchdog-abandoned driver throwing while it drains its in-flight
    // slot is acting on the retired shard: supervisors_[index] belongs to
    // the replacement that now owns the index, so the error is moot.
    return;
  }
  // Supervised: the exception is consumed here — quarantine (or fail when
  // the budget is already gone) instead of poisoning the barrier.
  Supervisor& sup = supervisors_[index];
  const std::uint64_t at = shard.done.load(std::memory_order_relaxed);
  stage_event(obs::EventKind::kShardQuarantine, at, index, sup.attempts,
              /*detail=*/0);
  if (sup.attempts >= config_.supervision.restart_budget) {
    sup.health = ShardHealth::kFailed;
    stage_event(obs::EventKind::kShardFailed, at, index, sup.attempts, 0);
    enqueue_black_box(index, shard, "crash-budget-exhausted",
                      /*watchdog=*/false, at, /*failed=*/true);
  } else {
    sup.health = ShardHealth::kQuarantined;
    const std::uint32_t doublings =
        std::min(sup.attempts, kMaxBackoffDoublings);
    sup.eligible_target =
        at + (config_.supervision.backoff_slots << doublings);
    enqueue_black_box(index, shard, "crash", /*watchdog=*/false, at,
                      /*failed=*/false);
  }
}

void Fleet::attempt_restart(std::unique_lock<std::mutex>& lock,
                            std::size_t index, Shard& shard) {
  Supervisor& sup = supervisors_[index];
  const std::uint64_t target = target_slots_;
  sup.health = ShardHealth::kRestarting;
  ++sup.attempts;
  stage_event(obs::EventKind::kShardRestart, target, index, sup.attempts, 0);
  const bool have_chain = checkpoint_policy_.has_value();
  lock.unlock();

  bool ok = false;
  std::uint64_t recovered_slot = 0;
  std::uint64_t discards = 0;
  std::vector<std::string> discard_reasons;
  try {
    // Fresh state on this thread: the crashed interconnect may be torn
    // mid-step — rebuild it. The derived seeds make the rebuild
    // bit-identical to the original bring-up.
    shard.store.reset();
    shard.interconnect.reset();
    shard.traffic.reset();
    shard.metrics.reset();
    build_shard_state(index, shard);
    if (have_chain) {
      CheckpointPolicy policy = *checkpoint_policy_;
      policy.dir = shard_checkpoint_dir(index);
      RecoveryReport report = recover_latest(policy.dir, *shard.interconnect,
                                             shard.traffic.get());
      discards = report.discarded.size();
      discard_reasons = std::move(report.reasons);
      if (report.recovered) recovered_slot = report.slot;
      // A fresh store never adopts an on-disk chain as a delta base: the
      // first frame after a restart is a full, so the shard's chain re-links
      // with the fleet's cadence going forward.
      shard.store = std::make_unique<CheckpointStore>(policy);
    }
    // Metrics are observers and are not checkpointed: the restarted shard
    // re-accumulates from its recovery slot.
    shard.total_arrivals = 0;
    shard.total_granted = 0;
    shard.done.store(recovered_slot, std::memory_order_release);
    // Replay forward to the fleet slot. Deterministic: the recovered (or
    // fresh) state plus the shard's own seeded streams reproduce exactly
    // the slots an uncrashed shard would have served.
    while (shard.done.load(std::memory_order_relaxed) < target &&
           !shard.abandoned.load(std::memory_order_relaxed)) {
      run_shard_slot(index, shard);
      shard.done.fetch_add(1, std::memory_order_release);
    }
    ok = !shard.abandoned.load(std::memory_order_relaxed);
  } catch (...) {
    ok = false;
  }

  lock.lock();
  recovery_discards_ += discards;
  const std::uint64_t at = shard.done.load(std::memory_order_relaxed);
  // The attempt is history the moment it resolves — the shard's black box
  // manifest replays this list to explain how supervision got here.
  RestartRecord record;
  record.attempt = sup.attempts;
  record.began_at_slot = target;
  record.ok = ok;
  record.recovered_slot = recovered_slot;
  record.discards = discards;
  sup.history.push_back(record);
  constexpr std::size_t kMaxDiscardReasons = 16;
  for (std::string& reason : discard_reasons) {
    if (sup.discard_reasons.size() >= kMaxDiscardReasons) break;
    sup.discard_reasons.push_back(std::move(reason));
  }
  if (ok) {
    sup.health = ShardHealth::kServing;
    ++sup.restarts;
    stage_event(obs::EventKind::kShardRejoin, at, index, recovered_slot, 0);
  } else if (sup.attempts >= config_.supervision.restart_budget) {
    sup.health = ShardHealth::kFailed;
    stage_event(obs::EventKind::kShardFailed, at, index, sup.attempts, 0);
    enqueue_black_box(index, shard, "restart-budget-exhausted",
                      /*watchdog=*/false, at, /*failed=*/true);
  } else {
    sup.health = ShardHealth::kQuarantined;
    stage_event(obs::EventKind::kShardQuarantine, at, index, sup.attempts, 0);
    const std::uint32_t doublings =
        std::min(sup.attempts, kMaxBackoffDoublings);
    sup.eligible_target =
        at + (config_.supervision.backoff_slots << doublings);
    enqueue_black_box(index, shard, "restart-failed", /*watchdog=*/false, at,
                      /*failed=*/false);
  }
}

void Fleet::quarantine_stuck_shard(std::size_t index) {
  Supervisor& sup = supervisors_[index];
  Shard& stuck = *shards_[index];
  stuck.abandoned.store(true, std::memory_order_relaxed);
  const std::uint64_t at = stuck.done.load(std::memory_order_acquire);
  stage_event(obs::EventKind::kShardQuarantine, at, index, sup.attempts,
              /*detail=*/1);
  // The stuck driver may still be mid-step inside the old state, so the
  // old Shard is retired (destroyed only after its thread winds down at
  // shutdown) and a fresh shell takes the index. The shell keeps an empty
  // metrics collector so exports never see a null shard.
  auto shell = std::make_unique<Shard>();
  shell->metrics = std::make_unique<MetricsCollector>(
      config_.interconnect.n_fibers, config_.interconnect.scheme.k());
  if (config_.flight.enabled) {
    shell->flight = std::make_unique<obs::FlightRecorder>(config_.flight);
  }
  retired_.push_back(std::move(shards_[index]));
  shards_[index] = std::move(shell);
  bool failed = false;
  if (sup.attempts >= config_.supervision.restart_budget) {
    sup.health = ShardHealth::kFailed;
    stage_event(obs::EventKind::kShardFailed, at, index, sup.attempts, 1);
    failed = true;
  } else {
    sup.health = ShardHealth::kQuarantined;
    const std::uint32_t doublings =
        std::min(sup.attempts, kMaxBackoffDoublings);
    sup.eligible_target =
        at + (config_.supervision.backoff_slots << doublings);
    drivers_.emplace_back(
        [this, index] { driver_main(index, /*replacement=*/true); });
  }
  // This thread must not snapshot the retired ring (the stuck driver may
  // wake mid-step and still be writing it); leave the supervisor snapshot
  // for the ring's owner to assemble the dump when it winds down.
  if (blackbox_ != nullptr) {
    Shard& old = *retired_.back();
    auto dump = std::make_unique<Shard::PendingDump>();
    dump->slot = at;
    dump->failed = failed;
    dump->sup = sup;
    old.pending_dump = std::move(dump);
  }
}

bool Fleet::barrier_satisfied() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (config_.supervision.enabled) {
      const Supervisor& sup = supervisors_[i];
      if (sup.health == ShardHealth::kFailed) continue;
      if (sup.health == ShardHealth::kQuarantined &&
          (sup.attempts >= config_.supervision.restart_budget ||
           sup.eligible_target > target_slots_)) {
        continue;  // backing off: the barrier degrades to the survivors
      }
      if (sup.health == ShardHealth::kRestarting) {
        // The replay inside attempt_restart drives done back up to target,
        // but the rejoin (kServing + restart counters) is published under
        // mu_ after the replay lands. Gating on health — not the raw done
        // counter — keeps advance() from returning mid-rejoin with the
        // shard still counted out of serving.
        return false;
      }
    }
    // Acquire pairs with the drivers' release publications: once every
    // shard reads done >= target here, the caller may touch the shards'
    // non-atomic state (aggregate_last_stats, totals, digests) race-free.
    if (shards_[i]->done.load(std::memory_order_acquire) < target_slots_) {
      return false;
    }
  }
  return true;
}

void Fleet::advance(std::uint64_t slots) {
  if (slots == 0) return;
  std::unique_lock lock(mu_);
  target_slots_ += slots;
  cv_.notify_all();
  const bool watchdog = config_.supervision.enabled &&
                        config_.supervision.watchdog_ns > 0;
  if (!watchdog) {
    done_cv_.wait(lock, [this] { return barrier_satisfied(); });
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      watchdog_progress_[i] = shards_[i]->done.load(std::memory_order_acquire);
    }
    const auto period =
        std::chrono::nanoseconds(config_.supervision.watchdog_ns);
    while (!barrier_satisfied()) {
      if (done_cv_.wait_for(lock, period,
                            [this] { return barrier_satisfied(); })) {
        break;
      }
      // Deadline passed with the barrier still open: any serving shard that
      // made no slot progress over the whole period is stuck or livelocked.
      // (Quarantined shards are excluded already; restarting shards are
      // exempt — recovery does file IO that is not slot progress.)
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (supervisors_[i].health != ShardHealth::kServing) continue;
        const std::uint64_t done =
            shards_[i]->done.load(std::memory_order_acquire);
        if (done >= target_slots_) continue;
        if (done != watchdog_progress_[i]) {
          watchdog_progress_[i] = done;
          continue;
        }
        quarantine_stuck_shard(i);
      }
    }
  }
  slot_ = target_slots_;
  if (!config_.supervision.enabled) {
    for (auto& shard : shards_) {
      if (shard->error) {
        const std::exception_ptr error = shard->error;
        lock.unlock();
        std::rethrow_exception(error);
      }
    }
  }
  // Drain staged supervision events on the caller thread — the recorder is
  // single-writer and this is the only thread that ever writes it.
  if (telemetry_ != nullptr && !pending_obs_.empty()) {
    for (const obs::TraceEvent& event : pending_obs_) {
      telemetry_->record(event);
    }
    pending_obs_.clear();
  }
}

void Fleet::aggregate_last_stats() {
  // Aggregate outside the barrier on the caller: SmallVec-backed per-class
  // columns keep this allocation-free. Only serving shards contribute — a
  // quarantined shard's last slot is stale history.
  last_stats_ = SlotStats{};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (config_.supervision.enabled &&
        supervisors_[i].health != ShardHealth::kServing) {
      continue;
    }
    last_stats_.add(shards_[i]->last);
  }
}

void Fleet::step() {
  advance(1);
  aggregate_last_stats();
}

void Fleet::run(std::uint64_t slots) {
  advance(slots);
  aggregate_last_stats();
}

std::uint64_t Fleet::shard_seed(std::size_t shard) const {
  WDM_CHECK_MSG(shard < seeds_.size(), "shard index out of range");
  return seeds_[shard];
}

std::uint64_t Fleet::total_arrivals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_arrivals;
  return total;
}

std::uint64_t Fleet::total_granted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_granted;
  return total;
}

void Fleet::reset_counters() {
  for (auto& shard : shards_) {
    shard->metrics = std::make_unique<MetricsCollector>(
        config_.interconnect.n_fibers, config_.interconnect.scheme.k());
    shard->total_arrivals = 0;
    shard->total_granted = 0;
  }
}

const Interconnect& Fleet::shard_interconnect(std::size_t shard) const {
  WDM_CHECK_MSG(shard < shards_.size(), "shard index out of range");
  WDM_CHECK_MSG(shards_[shard]->interconnect != nullptr,
                "shard has no live state (failed before restart)");
  return *shards_[shard]->interconnect;
}

const MetricsCollector& Fleet::shard_metrics(std::size_t shard) const {
  WDM_CHECK_MSG(shard < shards_.size(), "shard index out of range");
  return *shards_[shard]->metrics;
}

MetricsCollector Fleet::merged_metrics() const {
  MetricsCollector merged(config_.interconnect.n_fibers,
                          config_.interconnect.scheme.k());
  for (const auto& shard : shards_) merged.merge(*shard->metrics);
  return merged;
}

std::uint64_t Fleet::fleet_digest() const {
  // FNV-1a64 over the ordered little-endian shard digests: shard order is
  // part of the fingerprint (shard i is a distinct seeded stream).
  std::vector<std::uint8_t> bytes;
  bytes.reserve(shards_.size() * 8);
  for (const auto& shard : shards_) {
    std::uint64_t d = shard->interconnect != nullptr
                          ? state_digest(*shard->interconnect)
                          : kDeadShardDigest;
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(d & 0xff));
      d >>= 8;
    }
  }
  return util::fnv1a64(bytes);
}

ShardHealth Fleet::shard_health(std::size_t shard) const {
  WDM_CHECK_MSG(shard < supervisors_.size(), "shard index out of range");
  const std::lock_guard lock(mu_);
  return supervisors_[shard].health;
}

std::uint64_t Fleet::shard_restarts(std::size_t shard) const {
  WDM_CHECK_MSG(shard < supervisors_.size(), "shard index out of range");
  const std::lock_guard lock(mu_);
  return supervisors_[shard].restarts;
}

std::uint64_t Fleet::total_restarts() const {
  const std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const Supervisor& sup : supervisors_) total += sup.restarts;
  return total;
}

std::size_t Fleet::serving_shards() const {
  const std::lock_guard lock(mu_);
  std::size_t serving = 0;
  for (const Supervisor& sup : supervisors_) {
    if (sup.health == ShardHealth::kServing) ++serving;
  }
  return serving;
}

std::uint64_t Fleet::recovery_discards() const {
  const std::lock_guard lock(mu_);
  return recovery_discards_;
}

void Fleet::set_telemetry(obs::TraceRecorder* recorder) {
  const std::lock_guard lock(mu_);
  telemetry_ = recorder;
}

void Fleet::stage_event(obs::EventKind kind, std::uint64_t slot,
                        std::size_t shard, std::uint64_t b,
                        std::uint8_t detail) {
  if (telemetry_ == nullptr) return;
  obs::TraceEvent event;
  event.ts_ns = util::now_ns();
  event.slot = slot;
  event.a = shard;
  event.b = b;
  event.fiber = -1;
  event.kind = kind;
  event.detail = detail;
  pending_obs_.push_back(event);
}

obs::BlackBoxDump Fleet::make_black_box(std::size_t index, Shard& shard,
                                        const char* reason, bool watchdog,
                                        std::uint64_t at, bool failed,
                                        const Supervisor& sup) const {
  obs::BlackBoxDump dump;
  dump.name = "shard-" + std::to_string(index) + "-slot-" + std::to_string(at);

  const obs::TraceRecorder& recorder = shard.flight->recorder();
  recorder.snapshot(dump.events);
  // Append the supervision trigger so the trace explains itself: the last
  // record in the black box is always the decision that caused the dump.
  obs::TraceEvent trigger;
  trigger.ts_ns = util::now_ns();
  trigger.slot = at;
  trigger.a = index;
  trigger.b = sup.attempts;
  trigger.fiber = -1;
  trigger.kind = failed ? obs::EventKind::kShardFailed
                        : obs::EventKind::kShardQuarantine;
  trigger.detail = watchdog ? 1 : 0;
  dump.events.push_back(trigger);

  // metrics.prom: the standard counter set (so scripts/check_telemetry.py
  // validates it unchanged), the stage latency histograms, and the
  // supervision counters at dump time.
  const std::string shard_label = obs::label("shard", std::to_string(index));
  if (shard.metrics != nullptr) {
    register_metrics(dump.metrics, *shard.metrics);
  }
  obs::register_recorder(dump.metrics, recorder);
  dump.metrics.gauge("wdm_shard_health",
                     "Shard supervision state (0=serving 1=quarantined "
                     "2=restarting 3=failed)",
                     static_cast<double>(static_cast<std::uint8_t>(sup.health)),
                     shard_label);
  dump.metrics.counter("wdm_shard_restarts",
                       "Successful restarts of this shard", sup.restarts,
                       shard_label);
  dump.metrics.counter("wdm_shard_restart_attempts",
                       "Restart attempts consumed by this shard", sup.attempts,
                       shard_label);

  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"wdm-blackbox-v1\",\n"
     << "  \"shard\": " << index << ",\n"
     << "  \"slot\": " << at << ",\n"
     << "  \"reason\": \"" << obs::json_escape(reason) << "\",\n"
     << "  \"watchdog\": " << (watchdog ? "true" : "false") << ",\n"
     << "  \"health\": \"" << to_string(sup.health) << "\",\n"
     << "  \"shard_seed\": " << seeds_[index] << ",\n"
     << "  \"attempts\": " << sup.attempts << ",\n"
     << "  \"restarts\": " << sup.restarts << ",\n"
     << "  \"restart_budget\": " << config_.supervision.restart_budget << ",\n"
     << "  \"backoff_slots\": " << config_.supervision.backoff_slots << ",\n"
     << "  \"eligible_slot\": " << sup.eligible_target << ",\n"
     << "  \"trace_events\": " << recorder.recorded() << ",\n"
     << "  \"trace_dropped\": " << recorder.dropped() << ",\n"
     << "  \"restart_history\": [";
  for (std::size_t r = 0; r < sup.history.size(); ++r) {
    const RestartRecord& rec = sup.history[r];
    os << (r == 0 ? "\n" : ",\n")
       << "    {\"attempt\": " << rec.attempt
       << ", \"began_at_slot\": " << rec.began_at_slot
       << ", \"ok\": " << (rec.ok ? "true" : "false")
       << ", \"recovered_slot\": " << rec.recovered_slot
       << ", \"discards\": " << rec.discards << "}";
  }
  os << (sup.history.empty() ? "],\n" : "\n  ],\n")
     << "  \"recovery_discard_reasons\": [";
  for (std::size_t r = 0; r < sup.discard_reasons.size(); ++r) {
    os << (r == 0 ? "\n" : ",\n") << "    \""
       << obs::json_escape(sup.discard_reasons[r]) << '"';
  }
  os << (sup.discard_reasons.empty() ? "]\n" : "\n  ]\n") << "}\n";
  dump.manifest_json = os.str();
  return dump;
}

void Fleet::enqueue_black_box(std::size_t index, Shard& shard,
                              const char* reason, bool watchdog,
                              std::uint64_t at, bool failed) {
  if (blackbox_ == nullptr || shard.flight == nullptr) return;
  blackbox_->enqueue(make_black_box(index, shard, reason, watchdog, at,
                                    failed, supervisors_[index]));
}

const obs::FlightRecorder* Fleet::shard_flight(std::size_t shard) const {
  WDM_CHECK_MSG(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->flight.get();
}

std::uint64_t Fleet::black_box_dumps() const {
  return blackbox_ != nullptr ? blackbox_->written() : 0;
}

void Fleet::flush_black_boxes() {
  if (blackbox_ != nullptr) blackbox_->flush();
}

std::string Fleet::shard_checkpoint_dir(std::size_t index) const {
  return checkpoint_policy_->dir + "/shard-" + std::to_string(index);
}

void Fleet::open_checkpoints(const CheckpointPolicy& policy) {
  {
    const std::lock_guard lock(mu_);
    checkpoint_policy_ = policy;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    CheckpointPolicy shard_policy = policy;
    shard_policy.dir = shard_checkpoint_dir(i);
    shards_[i]->store = std::make_unique<CheckpointStore>(shard_policy);
  }
}

void Fleet::write_checkpoint() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (config_.supervision.enabled) {
      const std::lock_guard lock(mu_);
      if (supervisors_[i].health != ShardHealth::kServing) continue;
    }
    Shard& shard = *shards_[i];
    WDM_CHECK_MSG(shard.store != nullptr,
                  "write_checkpoint needs open_checkpoints first");
    shard.store->write(*shard.interconnect, shard.traffic.get());
  }
}

FleetRecovery Fleet::resume_from(const std::string& dir) {
  FleetRecovery out;
  out.shards.reserve(shards_.size());
  bool all = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    RecoveryReport report =
        recover_latest(dir + "/shard-" + std::to_string(i),
                       *shards_[i]->interconnect, shards_[i]->traffic.get());
    all = all && report.recovered;
    out.shards.push_back(std::move(report));
  }
  // A crash can land mid write_checkpoint, leaving some shards one frame
  // ahead of others. Negotiate the newest slot every chain can agree on:
  // re-recover any shard ahead of the minimum, bounded to it. The minimum
  // can only move down, so this converges in at most `shards` rounds.
  while (all) {
    std::uint64_t min_slot = out.shards.front().slot;
    bool agree = true;
    for (const auto& report : out.shards) {
      agree = agree && report.slot == out.shards.front().slot;
      min_slot = std::min(min_slot, report.slot);
    }
    if (agree) break;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (out.shards[i].slot <= min_slot) continue;
      out.shards[i] = recover_latest(
          dir + "/shard-" + std::to_string(i), *shards_[i]->interconnect,
          shards_[i]->traffic.get(), min_slot);
      all = all && out.shards[i].recovered;
    }
  }
  {
    const std::lock_guard lock(mu_);
    for (const auto& report : out.shards) {
      recovery_discards_ += report.discarded.size();
    }
  }
  if (!all) return out;
  const std::uint64_t slot = out.shards.front().slot;
  out.recovered = true;
  out.slot = slot;
  {
    const std::lock_guard lock(mu_);
    // Re-seat the barrier at the restored slot: done counters are absolute
    // fleet slots, and the restored interconnects sit exactly there.
    target_slots_ = slot;
    for (auto& shard : shards_) {
      shard->done.store(slot, std::memory_order_relaxed);
    }
  }
  slot_ = slot;
  return out;
}

}  // namespace wdm::sim
