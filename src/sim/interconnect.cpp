#include "sim/interconnect.hpp"

#include <algorithm>
#include <bit>

#include "core/wave_mask.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdm::sim {

namespace {

/// Label for the fault injector's RNG substream (see util::derive_stream_seed):
/// independent of the scheduler streams that consume the config seed itself.
constexpr std::uint64_t kFaultStreamLabel = 0xFA171ULL;

}  // namespace

Interconnect::Interconnect(InterconnectConfig config)
    : config_(std::move(config)),
      scheduler_(config_.n_fibers, config_.scheme, config_.algorithm,
                 config_.arbitration, config_.seed) {
  WDM_CHECK_MSG(config_.n_fibers > 0, "need at least one fiber");
  WDM_CHECK_MSG(config_.retry.max_retries >= 0 &&
                    config_.retry.backoff_base >= 1 &&
                    config_.retry.backoff_factor >= 1,
                "retry config: max_retries >= 0, backoff >= 1");
  if (config_.converter_budget >= 0) {
    scheduler_.set_converter_budget(config_.converter_budget);
  }
  if (config_.faults.enabled()) {
    faults_ = std::make_unique<FaultInjector>(
        config_.n_fibers, k(), config_.faults,
        util::derive_stream_seed(config_.seed, kFaultStreamLabel));
  }
  WDM_CHECK_MSG(config_.degrade.recovery_slots >= 1,
                "degrade config: recovery_slots >= 1");
  if (config_.admission.enabled) {
    admission_ =
        std::make_unique<AdmissionControl>(config_.n_fibers, config_.admission);
  }
  const auto n_channels = static_cast<std::size_t>(config_.n_fibers) *
                          static_cast<std::size_t>(k());
  out_remaining_.assign(n_channels, 0);
  out_input_fiber_.assign(n_channels, core::kNone);
  out_wavelength_.assign(n_channels, core::kNone);
  out_id_.assign(n_channels, 0);
  avail_.assign(n_channels, 1);  // N*k output plane, all channels free
  const std::size_t wpf = core::mask_words(k());
  avail_bits_.assign(static_cast<std::size_t>(config_.n_fibers) * wpf, 0);
  for (std::int32_t fiber = 0; fiber < config_.n_fibers; ++fiber) {
    core::mask_fill(avail_bits_.data() + static_cast<std::size_t>(fiber) * wpf,
                    k());
  }
  input_remaining_.assign(n_channels, 0);
  last_fiber_grants_.assign(static_cast<std::size_t>(config_.n_fibers), 0);
  fiber_grants_in_.assign(static_cast<std::size_t>(config_.n_fibers), 0);
  charge_order_.assign(static_cast<std::size_t>(config_.n_fibers), 0);

  // Pre-size the per-slot scratch to its worst case so the warm step path
  // never reallocates mid-run: per-slot arrivals and lifted connections are
  // both bounded by the N*k channel count. Without this, high-water creep
  // under random traffic (a slot that beats every previous slot's arrival
  // or active-connection count) costs a rare mid-run reallocation, which
  // breaks the fleet-level zero-allocation contract
  // (tests/test_zero_alloc.cpp drives a live 4-shard fleet).
  valid_.reserve(n_channels);
  batch_.reserve(n_channels);
  decisions_.reserve(n_channels);
  continuing_.reserve(n_channels);
  continuing_remaining_.reserve(n_channels);
  if (config_.retry.max_retries > 0) {
    retry_queue_.reserve(config_.retry.queue_capacity);
    due_.reserve(config_.retry.queue_capacity);
    retry_later_.reserve(config_.retry.queue_capacity);
  }
  if (config_.admission.enabled) {
    released_.reserve(config_.admission.queue_capacity);
  }
}

void Interconnect::reserve_worst_case_scratch() {
  // Worst slot batch: every input channel offers a fresh request and both
  // bounded queues drain entirely into the same slot — and all of it can
  // target a single output fiber.
  std::size_t worst = static_cast<std::size_t>(config_.n_fibers) *
                      static_cast<std::size_t>(k());
  if (config_.retry.max_retries > 0) worst += config_.retry.queue_capacity;
  if (config_.admission.enabled) worst += config_.admission.queue_capacity;
  scheduler_.reserve_batches(worst);
}

void Interconnect::set_deadline_script(
    const std::vector<std::uint64_t>* script) noexcept {
  deadline_script_ = script;
  script_cursor_ = 0;
  if (script != nullptr) {
    script_cursor_ = static_cast<std::size_t>(
        std::lower_bound(script->begin(), script->end(), slot_) -
        script->begin());
  }
}

std::uint64_t Interconnect::busy_output_channels() const noexcept {
  // busy = Nk − free, one popcount per mask word of the maintained bit plane.
  std::int32_t free_channels = 0;
  const std::size_t wpf = core::mask_words(k());
  for (std::int32_t fiber = 0; fiber < config_.n_fibers; ++fiber) {
    free_channels += core::mask_popcount(
        avail_bits_.data() + static_cast<std::size_t>(fiber) * wpf, k());
  }
  return static_cast<std::uint64_t>(config_.n_fibers) *
             static_cast<std::uint64_t>(k()) -
         static_cast<std::uint64_t>(free_channels);
}

void Interconnect::age_connections() {
  const std::int32_t kk = k();
  const std::size_t wpf = core::mask_words(kk);
  // Branchless decrement sweep over the whole SoA remaining column (the
  // compiler vectorizes it), collecting the channels that just expired into
  // a per-word bitmask; only those take the scattered release writes.
  for (std::int32_t fiber = 0; fiber < config_.n_fibers; ++fiber) {
    const std::size_t base =
        static_cast<std::size_t>(fiber) * static_cast<std::size_t>(kk);
    std::uint64_t* bits =
        avail_bits_.data() + static_cast<std::size_t>(fiber) * wpf;
    for (std::size_t wi = 0; wi < wpf; ++wi) {
      const std::size_t lo = wi << 6;
      const std::size_t lanes =
          std::min<std::size_t>(64, static_cast<std::size_t>(kk) - lo);
      std::uint64_t freed = 0;
      for (std::size_t b = 0; b < lanes; ++b) {
        const std::int32_t r = out_remaining_[base + lo + b];
        out_remaining_[base + lo + b] = r - (r > 0 ? 1 : 0);
        freed |= static_cast<std::uint64_t>(r == 1) << b;
      }
      bits[wi] |= freed;
      while (freed != 0) {
        const int b = std::countr_zero(freed);
        freed &= freed - 1;
        const std::size_t i = base + lo + static_cast<std::size_t>(b);
        out_input_fiber_[i] = core::kNone;
        out_wavelength_[i] = core::kNone;
        out_id_[i] = 0;
        avail_[i] = 1;
      }
    }
  }
  for (auto& remaining : input_remaining_) {
    remaining -= remaining > 0 ? 1 : 0;
  }
}

std::vector<std::uint8_t> Interconnect::input_channel_busy() const {
  std::vector<std::uint8_t> busy;
  input_channel_busy_into(busy);
  return busy;
}

void Interconnect::input_channel_busy_into(
    std::vector<std::uint8_t>& out) const {
  out.resize(input_remaining_.size());
  for (std::size_t i = 0; i < input_remaining_.size(); ++i) {
    // Busy *next* slot: the connection survives the upcoming aging tick.
    out[i] = input_remaining_[i] > 1 ? 1 : 0;
  }
}

void Interconnect::release_input(std::int32_t input_fiber,
                                 core::Wavelength wavelength) {
  const std::size_t in = static_cast<std::size_t>(input_fiber) *
                             static_cast<std::size_t>(k()) +
                         static_cast<std::size_t>(wavelength);
  input_remaining_[in] = 0;
}

void Interconnect::occupy(std::int32_t output_fiber, core::Channel channel,
                          const core::SlotRequest& request,
                          std::int32_t remaining) {
  const std::size_t i = static_cast<std::size_t>(output_fiber) *
                            static_cast<std::size_t>(k()) +
                        static_cast<std::size_t>(channel);
  WDM_CHECK_MSG(out_remaining_[i] == 0, "granted channel is already occupied");
  out_remaining_[i] = remaining;
  out_input_fiber_[i] = request.input_fiber;
  out_wavelength_[i] = request.wavelength;
  out_id_[i] = request.id;
  avail_[i] = 0;
  core::mask_clear(avail_bits_.data() + static_cast<std::size_t>(output_fiber) *
                                            core::mask_words(k()),
                   channel);
  const std::size_t in = static_cast<std::size_t>(request.input_fiber) *
                             static_cast<std::size_t>(k()) +
                         static_cast<std::size_t>(request.wavelength);
  input_remaining_[in] = remaining;
}

std::vector<std::vector<std::uint8_t>> Interconnect::availability() const {
  const auto kk = static_cast<std::size_t>(k());
  std::vector<std::vector<std::uint8_t>> masks(
      static_cast<std::size_t>(config_.n_fibers),
      std::vector<std::uint8_t>(kk, 1));
  for (std::size_t fiber = 0; fiber < masks.size(); ++fiber) {
    for (std::size_t ch = 0; ch < kk; ++ch) {
      if (out_remaining_[fiber * kk + ch] > 0) masks[fiber][ch] = 0;
    }
  }
  return masks;
}

bool Interconnect::connection_dead(const core::HealthMask& mask,
                                   std::size_t i, std::size_t u) const {
  if (out_remaining_[i] == 0) return false;
  const auto channel_health = mask.channel(static_cast<core::Channel>(u));
  // A converter fault only kills connections that are actually converting;
  // a straight-through connection (wavelength == channel) keeps flowing
  // without the converter.
  return mask.fiber_faulted ||
         channel_health == core::ChannelHealth::kChannelFaulted ||
         (channel_health == core::ChannelHealth::kConverterFaulted &&
          out_wavelength_[i] != static_cast<core::Wavelength>(u));
}

void Interconnect::teardown_faulted(
    const std::vector<core::HealthMask>& health,
    std::span<const std::int32_t> fibers, SlotStats& stats) {
  const auto kk = static_cast<std::size_t>(k());
  const std::size_t wpf = core::mask_words(k());
  for (const std::int32_t f : fibers) {
    const auto fiber = static_cast<std::size_t>(f);
    const auto& mask = health[fiber];
    for (std::size_t u = 0; u < kk; ++u) {
      const std::size_t i = fiber * kk + u;
      if (!connection_dead(mask, i, u)) continue;
      stats.dropped_faulted += 1;
      release_input(out_input_fiber_[i], out_wavelength_[i]);
      out_remaining_[i] = 0;
      out_input_fiber_[i] = core::kNone;
      out_wavelength_[i] = core::kNone;
      out_id_[i] = 0;
      avail_[i] = 1;
      core::mask_set(avail_bits_.data() + fiber * wpf,
                     static_cast<std::int32_t>(u));
    }
  }
}

Interconnect::Defer Interconnect::try_defer(const core::SlotRequest& request,
                                            std::int32_t attempts,
                                            SlotStats& stats) {
  if (attempts >= config_.retry.max_retries) return Defer::kBudgetExhausted;
  if (retry_queue_.size() >= config_.retry.queue_capacity) {
    return Defer::kQueueFull;
  }
  // Exponential backoff, capped so the delay arithmetic cannot overflow.
  std::uint64_t delay = static_cast<std::uint64_t>(config_.retry.backoff_base);
  for (std::int32_t a = 0; a < attempts && delay < (1ULL << 20); ++a) {
    delay *= static_cast<std::uint64_t>(config_.retry.backoff_factor);
  }
  retry_queue_.push_back(PendingRetry{request, attempts + 1, slot_ + delay});
  stats.deferred_faulted += 1;
  return Defer::kParked;
}

void Interconnect::count_rejection(const core::SlotRequest& request,
                                   core::RejectReason reason,
                                   std::int32_t attempts, SlotStats& stats) {
  if (reason == core::RejectReason::kFaulted) {
    switch (try_defer(request, attempts, stats)) {
      case Defer::kParked:
        return;
      case Defer::kBudgetExhausted:
        stats.rejected += 1;
        stats.rejected_faulted += 1;
        return;
      case Defer::kQueueFull:
        // The hardware fault is real, but the drop happened because the
        // retry queue is at its cap — a load condition, counted as an
        // overload shed so the conservation law stays exact at the cap.
        stats.rejected += 1;
        stats.shed_overload += 1;
        return;
    }
  }
  stats.rejected += 1;
  if (core::is_malformed(reason)) stats.rejected_malformed += 1;
}

SlotStats Interconnect::step(std::span<const core::SlotRequest> arrivals) {
  const bool trace_slots =
      telemetry_ != nullptr && telemetry_->at(obs::TraceDetail::kSlots);
  const std::uint64_t step_t0 = trace_slots ? util::now_ns() : 0;
  scheduler_.set_trace_slot(slot_);

  {
    const obs::StageTimer aging_timer(telemetry_, obs::Stage::kAging, slot_);
    age_connections();
  }
  last_fiber_grants_.assign(last_fiber_grants_.size(), 0);
  fiber_grants_in_.assign(fiber_grants_in_.size(), 0);

  const std::vector<core::HealthMask>* health = nullptr;
  if (faults_ != nullptr) {
    const obs::StageTimer fault_timer(telemetry_, obs::Stage::kFaults, slot_);
    faults_->tick();
    // Healthy slots skip the degraded scheduling path entirely.
    if (faults_->any_fault()) health = &faults_->health();
  }

  SlotStats stats;
  core::SlotBudget budget;
  core::SlotBudget* budget_ptr = nullptr;
  std::uint64_t slot_start_ns = 0;
  if (config_.degrade.enabled()) {
    budget.op_budget = config_.degrade.op_budget;
    if (config_.degrade.slot_deadline_ns > 0 && deadline_script_ == nullptr) {
      slot_start_ns = util::now_ns();
    }
    budget.force_degraded = degraded_mode_;
    // Rotate the budget plan's charge order with the slot counter, so the
    // ports past the budget's edge move around the ring instead of always
    // being the highest-numbered (degradation fairness). slot_ is
    // checkpointed, so replays rotate identically.
    budget.rotation = static_cast<std::int32_t>(
        slot_ % static_cast<std::uint64_t>(config_.n_fibers));
    if (admission_ != nullptr) {
      // Degradation charge order weighted by ingress backlog: output fibers
      // with the deepest parked demand are charged (and so scheduled exact)
      // first; ties keep the rotated ring order. Derived from checkpointed
      // state only — replays rebuild the identical order. Stable insertion
      // sort: N is small and the warm path must not allocate.
      const std::int32_t n = config_.n_fibers;
      for (std::int32_t i = 0; i < n; ++i) {
        charge_order_[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>((i + budget.rotation) % n);
      }
      for (std::int32_t i = 1; i < n; ++i) {
        const std::int32_t fiber = charge_order_[static_cast<std::size_t>(i)];
        const std::uint32_t depth = admission_->queued_for_output(fiber);
        std::int32_t j = i;
        while (j > 0 &&
               admission_->queued_for_output(
                   charge_order_[static_cast<std::size_t>(j - 1)]) < depth) {
          charge_order_[static_cast<std::size_t>(j)] =
              charge_order_[static_cast<std::size_t>(j - 1)];
          j -= 1;
        }
        charge_order_[static_cast<std::size_t>(j)] = fiber;
      }
      budget.charge_order = charge_order_.data();
    }
    budget_ptr = &budget;
  }
  if (config_.policy == OccupiedPolicy::kNoDisturb) {
    step_no_disturb(arrivals, health, stats, budget_ptr);
  } else {
    step_rearrange(arrivals, health, stats, budget_ptr);
  }
  if (budget_ptr != nullptr) {
    stats.degraded_ports = static_cast<std::uint64_t>(budget.degraded_ports);
    // The slot's wall-clock verdict: measured once here (slot granularity),
    // or taken from the installed script — never both, so a replay is
    // clock-free end to end.
    bool deadline_overrun = false;
    std::uint64_t measured_ns = 0;  // 0 on the scripted (replay) path
    if (config_.degrade.slot_deadline_ns > 0) {
      if (deadline_script_ != nullptr) {
        const auto& script = *deadline_script_;
        while (script_cursor_ < script.size() &&
               script[script_cursor_] < slot_) {
          script_cursor_ += 1;
        }
        if (script_cursor_ < script.size() &&
            script[script_cursor_] == slot_) {
          deadline_overrun = true;
          script_cursor_ += 1;
        }
      } else {
        measured_ns = util::now_ns() - slot_start_ns;
        deadline_overrun = measured_ns > config_.degrade.slot_deadline_ns;
        if (deadline_overrun && deadline_log_ != nullptr) {
          deadline_log_->push_back(slot_);
        }
      }
      if (deadline_overrun && trace_slots) {
        obs::TraceEvent e;
        e.ts_ns = util::now_ns();
        e.slot = slot_;
        e.a = measured_ns;
        e.b = config_.degrade.slot_deadline_ns;
        e.kind = obs::EventKind::kDeadlineOverrun;
        telemetry_->record(e);
      }
    }
    update_hysteresis(budget, deadline_overrun);
  }
  if (admission_ != nullptr) admission_->observe_slot(fiber_grants_in_);
  stats.busy_channels = busy_output_channels();
  if (trace_slots) {
    telemetry_->record_stage(obs::Stage::kSlot, slot_, step_t0, util::now_ns(),
                             stats.arrivals, stats.granted);
  }
  slot_ += 1;
#ifndef NDEBUG
  // The incrementally maintained planes (bytes and packed bits) must agree
  // with a from-scratch rebuild after every step (debug builds only; the
  // rebuild is O(Nk)).
  const auto rebuilt = availability();
  const std::size_t wpf = core::mask_words(k());
  for (std::size_t fiber = 0; fiber < rebuilt.size(); ++fiber) {
    for (std::size_t u = 0; u < rebuilt[fiber].size(); ++u) {
      WDM_DCHECK(avail_[fiber * static_cast<std::size_t>(k()) + u] ==
                 rebuilt[fiber][u]);
      WDM_DCHECK(core::mask_test(avail_bits_.data() + fiber * wpf,
                                 static_cast<std::int32_t>(u)) ==
                 (rebuilt[fiber][u] != 0));
    }
  }
  // Every live connection satisfies the current health after a step, under
  // either policy: teardown_faulted, which visits only the fibers whose
  // health changed this slot, must have left nothing for a full sweep.
  if (faults_ != nullptr) {
    const auto& health = faults_->health();
    for (std::size_t fiber = 0; fiber < health.size(); ++fiber) {
      for (std::size_t u = 0; u < static_cast<std::size_t>(k()); ++u) {
        WDM_DCHECK(!connection_dead(
            health[fiber], fiber * static_cast<std::size_t>(k()) + u, u));
      }
    }
  }
#endif
  return stats;
}

void Interconnect::update_hysteresis(const core::SlotBudget& budget,
                                     bool deadline_overrun) {
  // "Overloaded" is judged against what exact-everywhere scheduling would
  // have cost (ops_exact_estimate), not against what was charged — a slot
  // held degraded by hysteresis charges little, which must not read as calm.
  // A deadline overrun is overload by itself: it both blocks recovery and
  // latches degraded mode even when no port was op-budget-downgraded (a
  // deadline-only config degrades the *next* slot — slot granularity).
  bool overloaded = deadline_overrun;
  if (config_.degrade.op_budget > 0 &&
      budget.ops_exact_estimate > config_.degrade.op_budget) {
    overloaded = true;
  }
  const auto record_flip = [this](obs::EventKind kind) {
    if (telemetry_ == nullptr || !telemetry_->at(obs::TraceDetail::kSlots)) {
      return;
    }
    obs::TraceEvent e;
    e.ts_ns = util::now_ns();
    e.slot = slot_;
    e.kind = kind;
    telemetry_->record(e);
  };
  if (!degraded_mode_) {
    if (budget.degraded_ports > 0 || deadline_overrun) {
      degraded_mode_ = true;
      calm_slots_ = 0;
      record_flip(obs::EventKind::kDegradeEnter);
    }
    return;
  }
  if (overloaded) {
    calm_slots_ = 0;
    return;
  }
  calm_slots_ += 1;
  if (calm_slots_ >= config_.degrade.recovery_slots) {
    degraded_mode_ = false;
    calm_slots_ = 0;
    record_flip(obs::EventKind::kDegradeExit);
  }
}

void Interconnect::run_retries(const std::vector<core::HealthMask>* health,
                               SlotStats& stats, core::SlotBudget* budget) {
  if (retry_queue_.empty()) return;
  const obs::StageTimer retry_timer(telemetry_, obs::Stage::kRetry, slot_);
  due_.clear();
  retry_later_.clear();
  due_.reserve(retry_queue_.size());
  retry_later_.reserve(retry_queue_.size());
  for (auto& pending : retry_queue_) {
    (pending.due_slot <= slot_ ? due_ : retry_later_).push_back(pending);
  }
  // Swap instead of move-assign so both buffers keep their capacity.
  std::swap(retry_queue_, retry_later_);
  if (due_.empty()) return;

  stats.retry_attempts += due_.size();
  const std::uint64_t successes_before = stats.retry_successes;
  batch_.clear();
  batch_.reserve(due_.size());
  for (const auto& pending : due_) batch_.push_back(pending.request);
  decisions_.resize(batch_.size());
  scheduler_.schedule_slot_into(batch_, availability_view(), health, budget,
                                decisions_);
  for (std::size_t i = 0; i < due_.size(); ++i) {
    if (decisions_[i].granted) {
      stats.granted += 1;
      stats.retry_successes += 1;
      occupy(batch_[i].output_fiber, decisions_[i].channel, batch_[i],
             batch_[i].duration);
      last_fiber_grants_[static_cast<std::size_t>(batch_[i].output_fiber)] += 1;
      fiber_grants_in_[static_cast<std::size_t>(batch_[i].input_fiber)] += 1;
      continue;
    }
    count_rejection(batch_[i], decisions_[i].reason, due_[i].attempts, stats);
  }
  if (telemetry_ != nullptr && telemetry_->at(obs::TraceDetail::kFull)) {
    obs::TraceEvent e;
    e.ts_ns = util::now_ns();
    e.slot = slot_;
    e.a = due_.size();
    e.b = stats.retry_successes - successes_before;
    e.kind = obs::EventKind::kRetryDrain;
    telemetry_->record(e);
  }
}

void Interconnect::run_ingress(const std::vector<core::HealthMask>* health,
                               SlotStats& stats, core::SlotBudget* budget) {
  if (admission_ == nullptr) return;
  const obs::StageTimer ingress_timer(telemetry_, obs::Stage::kIngress, slot_);
  admission_->begin_slot();
  released_.clear();
  admission_->drain(released_, stats);
  if (released_.empty()) return;
  if (telemetry_ != nullptr && telemetry_->at(obs::TraceDetail::kFull)) {
    obs::TraceEvent e;
    e.ts_ns = util::now_ns();
    e.slot = slot_;
    e.a = released_.size();
    e.kind = obs::EventKind::kIngressRelease;
    telemetry_->record(e);
  }
  // Released requests are scheduled as their own batch between retries and
  // fresh arrivals (they have waited longer than anything arriving now).
  // Like retries, they are tracked by the ingress_* counters only, never in
  // the per-class arrival accounting.
  decisions_.resize(released_.size());
  scheduler_.schedule_slot_into(released_, availability_view(), health,
                                budget, decisions_);
  for (std::size_t i = 0; i < released_.size(); ++i) {
    if (decisions_[i].granted) {
      stats.granted += 1;
      occupy(released_[i].output_fiber, decisions_[i].channel, released_[i],
             released_[i].duration);
      last_fiber_grants_[static_cast<std::size_t>(released_[i].output_fiber)] +=
          1;
      fiber_grants_in_[static_cast<std::size_t>(released_[i].input_fiber)] += 1;
      continue;
    }
    count_rejection(released_[i], decisions_[i].reason, 0, stats);
  }
}

void Interconnect::schedule_new_arrivals(
    std::span<const core::SlotRequest> arrivals,
    const std::vector<core::HealthMask>* health, SlotStats& stats,
    core::SlotBudget* budget) {
  stats.arrivals += arrivals.size();

  // Per-request validation of externally supplied data (trace replay, user
  // workloads): a malformed request is dropped and counted, never thrown on.
  // The scheduler re-validates what it can see, but the input-fiber upper
  // bound — needed before occupy() touches per-input-channel state — is only
  // known here.
  //
  // Admission: fresh arrivals pass through the token buckets after the
  // ingress queue drained (run_ingress), so queued requests get the slot's
  // tokens first. Non-admitted requests are queued or shed inside offer().
  // max_class counts only the kept requests (shedding may remove a class's
  // only request).
  //
  // The copy into valid_ is lazy: while every request so far is kept (the
  // steady state without admission), the slot schedules straight off the
  // caller's span; the first dropped request copies the kept prefix.
  valid_.clear();
  bool copied = false;
  std::int32_t max_class = 0;
  {
    const obs::StageTimer admission_timer(
        admission_ != nullptr ? telemetry_ : nullptr, obs::Stage::kAdmission,
        slot_);
    for (std::size_t idx = 0; idx < arrivals.size(); ++idx) {
      const auto& r = arrivals[idx];
      const bool ok =
          r.input_fiber >= 0 && r.input_fiber < config_.n_fibers &&
          r.output_fiber >= 0 && r.output_fiber < config_.n_fibers &&
          r.wavelength >= 0 && r.wavelength < k() && r.duration >= 1 &&
          r.priority >= 0;
      bool kept = ok;
      if (!ok) {
        stats.rejected += 1;
        stats.rejected_malformed += 1;
      } else if (admission_ != nullptr) {
        kept = admission_->offer(r, stats) == AdmissionControl::Verdict::kAdmit;
      }
      if (!kept) {
        if (!copied) {
          valid_.assign(arrivals.begin(),
                        arrivals.begin() + static_cast<std::ptrdiff_t>(idx));
          copied = true;
        }
        continue;
      }
      max_class = std::max(max_class, r.priority);
      if (copied) valid_.push_back(r);
    }
  }
  const std::span<const core::SlotRequest> admitted =
      copied ? std::span<const core::SlotRequest>(valid_) : arrivals;

  // Partition by QoS class (strict priority, 0 = highest); the common
  // single-class case stays a single scheduling pass — and schedules the
  // admitted span in place, with no per-class copy.
  if (!admitted.empty()) {
    // Always record per-class; a multi-class *run* can still have
    // single-class slots, and the driver must see them (it collapses the
    // vectors at report time if the whole run was single-class).
    stats.arrivals_per_class.resize(static_cast<std::size_t>(max_class) + 1, 0);
    stats.granted_per_class.resize(static_cast<std::size_t>(max_class) + 1, 0);
  }

  for (std::int32_t cls = 0; cls <= max_class; ++cls) {
    std::span<const core::SlotRequest> cls_batch;
    if (max_class == 0) {
      cls_batch = admitted;
    } else {
      batch_.clear();
      batch_.reserve(admitted.size());
      for (const auto& r : admitted) {
        if (r.priority == cls) batch_.push_back(r);
      }
      cls_batch = batch_;
    }
    if (cls_batch.empty()) continue;
    stats.arrivals_per_class[static_cast<std::size_t>(cls)] += cls_batch.size();
    // Availability reflects everything higher classes just took.
    decisions_.resize(cls_batch.size());
    scheduler_.schedule_slot_into(cls_batch, availability_view(), health,
                                  budget, decisions_);
    for (std::size_t i = 0; i < cls_batch.size(); ++i) {
      if (!decisions_[i].granted) {
        count_rejection(cls_batch[i], decisions_[i].reason, 0, stats);
        continue;
      }
      stats.granted += 1;
      stats.granted_per_class[static_cast<std::size_t>(cls)] += 1;
      occupy(cls_batch[i].output_fiber, decisions_[i].channel, cls_batch[i],
             cls_batch[i].duration);
      last_fiber_grants_[static_cast<std::size_t>(cls_batch[i].output_fiber)] +=
          1;
      fiber_grants_in_[static_cast<std::size_t>(cls_batch[i].input_fiber)] += 1;
    }
  }
}

void Interconnect::step_no_disturb(
    std::span<const core::SlotRequest> arrivals,
    const std::vector<core::HealthMask>* health, SlotStats& stats,
    core::SlotBudget* budget) {
  // Under kNoDisturb a connection is pinned to its exact channel, so losing
  // that channel (or its converter mid-conversion, or the fiber) kills the
  // connection outright.
  if (health != nullptr) {
    teardown_faulted(*health, faults_->changed_fibers(), stats);
  }
  run_retries(health, stats, budget);
  run_ingress(health, stats, budget);
  schedule_new_arrivals(arrivals, health, stats, budget);
}

void Interconnect::step_rearrange(
    std::span<const core::SlotRequest> arrivals,
    const std::vector<core::HealthMask>* health, SlotStats& stats,
    core::SlotBudget* budget) {
  // Phase 1: lift ongoing connections out of the fabric and re-schedule them
  // with the whole fiber free. On healthy hardware they were simultaneously
  // placed a slot ago, so a full placement exists and the maximum matching
  // saturates them all. Under faults the surviving graph may be smaller: the
  // health-aware schedule re-homes whoever still fits, and the rest are
  // genuine fault casualties.
  continuing_.clear();
  continuing_remaining_.clear();
  const auto kk = static_cast<std::size_t>(k());
  const std::size_t wpf = core::mask_words(k());
  for (std::int32_t fiber = 0; fiber < config_.n_fibers; ++fiber) {
    for (std::size_t u = 0; u < kk; ++u) {
      const std::size_t i = static_cast<std::size_t>(fiber) * kk + u;
      if (out_remaining_[i] == 0) continue;
      continuing_.push_back(core::SlotRequest{out_input_fiber_[i],
                                              out_wavelength_[i], fiber,
                                              out_id_[i], out_remaining_[i]});
      continuing_remaining_.push_back(out_remaining_[i]);
      out_remaining_[i] = 0;
      out_input_fiber_[i] = core::kNone;
      out_wavelength_[i] = core::kNone;
      out_id_[i] = 0;
      avail_[i] = 1;
      core::mask_set(
          avail_bits_.data() + static_cast<std::size_t>(fiber) * wpf,
          static_cast<std::int32_t>(u));
    }
  }
  if (!continuing_.empty()) {
    // Phase 1 sees the whole fabric free: an empty view, like the old null
    // availability pointer, means every channel is schedulable. Re-homing
    // runs exact even under a blown budget (no SlotBudget): the "continuing
    // connections are always re-placeable" invariant rests on the matching
    // being maximum, which the approximation does not guarantee.
    decisions_.resize(continuing_.size());
    scheduler_.schedule_slot_into(continuing_, core::AvailabilityView{},
                                  health, nullptr, decisions_);
    for (std::size_t i = 0; i < continuing_.size(); ++i) {
      if (decisions_[i].granted) {
        occupy(continuing_[i].output_fiber, decisions_[i].channel,
               continuing_[i], continuing_remaining_[i]);
      } else {
        // With faults active this is a connection the surviving graph could
        // not re-home; without, it cannot happen for a maximum matching (see
        // above) and is accounted defensively so a scheduler bug surfaces.
        release_input(continuing_[i].input_fiber, continuing_[i].wavelength);
        if (health != nullptr) {
          stats.dropped_faulted += 1;
        } else {
          stats.preempted += 1;
        }
      }
    }
  }

  // Phase 2: retries, ingress releases, then new arrivals compete for the
  // channels left over.
  run_retries(health, stats, budget);
  run_ingress(health, stats, budget);
  schedule_new_arrivals(arrivals, health, stats, budget);
}

void Interconnect::save_section(std::size_t section,
                                util::SnapshotWriter& w) const {
  switch (section) {
    case 0:
      // Geometry/config echo, validated on restore: a checkpoint only
      // restores into an interconnect built from the same config.
      w.i32(config_.n_fibers);
      w.i32(k());
      w.u8(static_cast<std::uint8_t>(config_.scheme.kind()));
      w.i32(config_.scheme.e());
      w.i32(config_.scheme.f());
      w.u8(static_cast<std::uint8_t>(config_.algorithm));
      w.u8(static_cast<std::uint8_t>(config_.arbitration));
      w.u8(static_cast<std::uint8_t>(config_.policy));
      w.u64(config_.seed);
      return;
    case 1:
      w.u64(slot_);
      return;
    case 2:
      // Output occupancy plane, one fixed 24-byte record per channel, with
      // the hold stored as its absolute expiry slot (0 = free): a connection
      // ages by slot_ advancing, not by its record changing, so an unchanged
      // channel diffs to zero bytes between delta checkpoints.
      for (std::size_t i = 0; i < out_remaining_.size(); ++i) {
        w.u64(out_remaining_[i] > 0
                  ? slot_ + static_cast<std::uint64_t>(out_remaining_[i])
                  : 0);
        w.i32(out_input_fiber_[i]);
        w.i32(out_wavelength_[i]);
        w.u64(out_id_[i]);
      }
      return;
    case 3:
      // Input-channel plane, same expiry encoding (8-byte records).
      for (const std::int32_t remaining : input_remaining_) {
        w.u64(remaining > 0 ? slot_ + static_cast<std::uint64_t>(remaining)
                            : 0);
      }
      return;
    case 4:
      w.u64(retry_queue_.size());
      for (const auto& pending : retry_queue_) {
        w.i32(pending.request.input_fiber);
        w.i32(pending.request.wavelength);
        w.i32(pending.request.output_fiber);
        w.u64(pending.request.id);
        w.i32(pending.request.duration);
        w.i32(pending.request.priority);
        w.i32(pending.attempts);
        w.u64(pending.due_slot);
      }
      return;
    case 5:
      scheduler_.save_state(w);
      return;
    case 6:
      w.u8(faults_ != nullptr ? 1 : 0);
      if (faults_ != nullptr) faults_->save_state(w);
      return;
    case 7:
      w.u8(admission_ != nullptr ? 1 : 0);
      if (admission_ != nullptr) admission_->save_state(w);
      return;
    case 8:
      w.u8(degraded_mode_ ? 1 : 0);
      w.i32(calm_slots_);
      return;
    default:
      WDM_CHECK_MSG(false, "save_section: section index out of range");
  }
}

void Interconnect::save_state(util::SnapshotWriter& w) const {
  // Exactly the concatenation of the kSections sections, so the flat stream
  // checkpoint, the sectioned full frame, and a reconstructed delta chain
  // all share one payload layout (and one state_digest).
  for (std::size_t s = 0; s < kSections; ++s) save_section(s, w);
}

void Interconnect::restore_state(util::SnapshotReader& r) {
  // S0: config echo.
  WDM_CHECK_MSG(
      r.i32() == config_.n_fibers && r.i32() == k() &&
          r.u8() == static_cast<std::uint8_t>(config_.scheme.kind()) &&
          r.i32() == config_.scheme.e() && r.i32() == config_.scheme.f() &&
          r.u8() == static_cast<std::uint8_t>(config_.algorithm) &&
          r.u8() == static_cast<std::uint8_t>(config_.arbitration) &&
          r.u8() == static_cast<std::uint8_t>(config_.policy) &&
          r.u64() == config_.seed,
      "snapshot was taken from a different interconnect config");

  // S1 before S2/S3: the expiry decode below needs the restored slot counter.
  slot_ = r.u64();
  const auto kk = static_cast<std::size_t>(k());
  const std::size_t wpf = core::mask_words(k());
  for (std::size_t i = 0; i < out_remaining_.size(); ++i) {
    const std::uint64_t expiry = r.u64();
    WDM_CHECK_MSG(expiry == 0 || (expiry > slot_ && expiry - slot_ <=
                                                       0x7fffffffull),
                  "snapshot occupancy expiry is not ahead of its slot");
    out_remaining_[i] =
        expiry == 0 ? 0 : static_cast<std::int32_t>(expiry - slot_);
    out_input_fiber_[i] = r.i32();
    out_wavelength_[i] = r.i32();
    out_id_[i] = r.u64();
    // The flat planes are rebuilt from the occupancy they mirror, so they
    // cannot disagree after a restore.
    avail_[i] = out_remaining_[i] > 0 ? 0 : 1;
  }
  for (std::int32_t fiber = 0; fiber < config_.n_fibers; ++fiber) {
    std::uint64_t* bits =
        avail_bits_.data() + static_cast<std::size_t>(fiber) * wpf;
    core::mask_fill(bits, k());
    for (std::size_t u = 0; u < kk; ++u) {
      if (out_remaining_[static_cast<std::size_t>(fiber) * kk + u] > 0) {
        core::mask_clear(bits, static_cast<std::int32_t>(u));
      }
    }
  }
  for (auto& remaining : input_remaining_) {
    const std::uint64_t expiry = r.u64();
    WDM_CHECK_MSG(expiry == 0 || (expiry > slot_ && expiry - slot_ <=
                                                       0x7fffffffull),
                  "snapshot input-channel expiry is not ahead of its slot");
    remaining = expiry == 0 ? 0 : static_cast<std::int32_t>(expiry - slot_);
  }
  retry_queue_.clear();
  const std::uint64_t pending_count = r.u64();
  WDM_CHECK_MSG(pending_count <= config_.retry.queue_capacity,
                "snapshot retry queue exceeds this config's capacity");
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    PendingRetry pending;
    pending.request.input_fiber = r.i32();
    pending.request.wavelength = r.i32();
    pending.request.output_fiber = r.i32();
    pending.request.id = r.u64();
    pending.request.duration = r.i32();
    pending.request.priority = r.i32();
    pending.attempts = r.i32();
    pending.due_slot = r.u64();
    retry_queue_.push_back(pending);
  }
  scheduler_.restore_state(r);
  const bool had_faults = r.u8() != 0;
  WDM_CHECK_MSG(had_faults == (faults_ != nullptr),
                "snapshot fault-injection state does not match this config");
  if (faults_ != nullptr) faults_->restore_state(r);
  const bool had_admission = r.u8() != 0;
  WDM_CHECK_MSG(had_admission == (admission_ != nullptr),
                "snapshot admission state does not match this config");
  if (admission_ != nullptr) admission_->restore_state(r);
  degraded_mode_ = r.u8() != 0;
  calm_slots_ = r.i32();
  last_fiber_grants_.assign(last_fiber_grants_.size(), 0);
  fiber_grants_in_.assign(fiber_grants_in_.size(), 0);
  // A restore can land mid-script (checkpoint/restore inside a replay):
  // re-seat the script cursor on the restored slot counter.
  if (deadline_script_ != nullptr) set_deadline_script(deadline_script_);
}

}  // namespace wdm::sim
