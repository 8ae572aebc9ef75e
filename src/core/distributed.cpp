#include "core/distributed.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdm::core {

DistributedScheduler::DistributedScheduler(std::int32_t n_output_fibers,
                                           ConversionScheme scheme,
                                           Algorithm algorithm,
                                           Arbitration arbitration,
                                           std::uint64_t seed)
    : scheme_(std::move(scheme)) {
  WDM_CHECK_MSG(n_output_fibers > 0, "need at least one output fiber");
  util::Rng seeder(seed);
  ports_.reserve(static_cast<std::size_t>(n_output_fibers));
  for (std::int32_t fiber = 0; fiber < n_output_fibers; ++fiber) {
    ports_.emplace_back(scheme_, algorithm, arbitration, seeder.next());
  }
}

OutputPortScheduler& DistributedScheduler::port(std::int32_t fiber) {
  WDM_CHECK(fiber >= 0 && fiber < n_output_fibers());
  return ports_[static_cast<std::size_t>(fiber)];
}

void DistributedScheduler::set_converter_budget(std::int32_t budget) {
  for (auto& port : ports_) port.set_converter_budget(budget);
}

void DistributedScheduler::reserve_batches(std::size_t max_requests_per_slot) {
  size_arenas();
  members_.reserve(max_requests_per_slot);
  // The ports only arbitrate on this path; their own grouping arrays serve
  // OutputPortScheduler::schedule_into.
  for (auto& port : ports_) port.reserve_batch(0);
}

void DistributedScheduler::size_arenas() {
  if (!group_.empty()) return;
  group_.assign(ports_.size() * static_cast<std::size_t>(k()), 0);
  fibers_.resize(ports_.size());
}

template <typename RowFn, typename BitsFn>
void DistributedScheduler::schedule_slot_impl(
    std::span<const SlotRequest> requests, RowFn&& row_of, BitsFn&& bits_of,
    const std::vector<HealthMask>* health, SlotBudget* budget,
    std::span<PortDecision> decisions) {
  const auto n_fibers = static_cast<std::size_t>(n_output_fibers());
  const std::int32_t k = this->k();
  const auto uk = static_cast<std::size_t>(k);

  // Externally supplied data is rejected per-request, never with a throw: a
  // malformed SlotRequest (or a wrong-shaped availability or health vector)
  // costs the affected grants only, not the slot or the process.
  if (health != nullptr && health->size() != n_fibers) {
    std::fill(decisions.begin(), decisions.end(),
              PortDecision::reject(RejectReason::kBadHealthMask));
    return;
  }
  size_arenas();

  // The grouping pass. Each request is validated in the documented order:
  // output fiber, fiber health (a fiber cut: nothing destined to it is
  // inspected), priority, then the fiber-wide shape rejections (a ragged
  // availability row, a wrong-shaped health mask), then validate_request's
  // fields. A valid request enters as a capacity rejection that a grant
  // overwrites, and is counted at its (fiber, wavelength). A prefix over
  // the busy fibers' rows turns the counts into group starts, and a stable
  // placement pass fills each group in arrival order.
  {
    const obs::StageTimer partition_timer(telemetry_, obs::Stage::kPartition,
                                          trace_slot_);
    for (std::size_t fiber = 0; fiber < n_fibers; ++fiber) {
      const HealthMask* h = health != nullptr ? &(*health)[fiber] : nullptr;
      const std::size_t row = row_of(fiber).size();
      fibers_[fiber] = FiberGroups{
          0, 0,
          h != nullptr && h->fiber_faulted ? RejectReason::kFaulted
          : row != 0 && row != uk          ? RejectReason::kBadAvailabilityMask
          : h != nullptr && !h->channels.empty() && h->channels.size() != uk
              ? RejectReason::kBadHealthMask
              : RejectReason::kGranted};
    }
    for (std::size_t idx = 0; idx < requests.size(); ++idx) {
      const auto& r = requests[idx];
      const auto fiber = static_cast<std::size_t>(r.output_fiber);
      // One predicted branch per request on the all-valid fast path; the
      // cold branch names the reason.
      const bool fiber_ok = r.output_fiber >= 0 && fiber < n_fibers;
      if (fiber_ok && fibers_[fiber].reason == RejectReason::kGranted &&
          r.priority >= 0 && r.wavelength >= 0 && r.wavelength < k &&
          r.input_fiber >= 0 && r.duration >= 1) {
        const std::size_t key = fiber * uk + static_cast<std::size_t>(r.wavelength);
        group_[key] += 1;
        fibers_[fiber].routed += 1;
        decisions[idx] = PortDecision::reject(RejectReason::kNoChannel);
        continue;
      }
      RejectReason reason = RejectReason::kInvalidOutputFiber;
      if (fiber_ok) {
        const RejectReason fiber_reason = fibers_[fiber].reason;
        // Past the fiber cut and priority the request is routed: the budget
        // plan charges its fiber even if nothing on it is schedulable.
        const bool routed = fiber_reason != RejectReason::kFaulted &&
                            r.priority >= 0;
        fibers_[fiber].routed += routed ? 1 : 0;
        reason = fiber_reason == RejectReason::kFaulted ? fiber_reason
                 : r.priority < 0 ? RejectReason::kInvalidPriority
                 : fiber_reason != RejectReason::kGranted
                     ? fiber_reason
                     : validate_request(
                           Request{r.input_fiber, r.wavelength, 0, r.duration},
                           k);
      }
      decisions[idx] = PortDecision::reject(reason);
    }
    std::uint32_t next = 0;
    for (std::size_t fiber = 0; fiber < n_fibers; ++fiber) {
      if (fibers_[fiber].routed == 0) continue;
      fibers_[fiber].base = next;
      for (std::uint32_t& slot : std::span(group_).subspan(fiber * uk, uk)) {
        next += std::exchange(slot, next);
      }
    }
    if (members_.size() < next) members_.resize(next);
    for (std::size_t idx = 0; idx < requests.size(); ++idx) {
      if (decisions[idx].reason != RejectReason::kNoChannel) continue;
      const auto& r = requests[idx];
      members_[group_[static_cast<std::size_t>(r.output_fiber) * uk +
                      static_cast<std::size_t>(r.wavelength)]++] =
          static_cast<std::uint32_t>(idx);
    }
  }

  // Deadline-bounded degradation plan. The op-budget decisions are made here,
  // in charge order, *before* any scheduling work, so which ports degrade
  // depends on the budget and the grouping alone. Wall-clock
  // deadlines never reach this layer — the interconnect judges the whole
  // step and feeds the verdict back through force_degraded.
  const bool budgeted = budget != nullptr && budget->active();
  if (budgeted) {
    const auto kk = static_cast<std::uint64_t>(k);
    const auto d = static_cast<std::uint64_t>(scheme_.degree());
    // Fairness rotation: charge fibers starting at budget->rotation so the
    // fibers past the budget's edge — the ones downgraded — move around the
    // ring from slot to slot instead of always being the highest-numbered.
    // An explicit charge_order (deepest ingress backlog first) overrides the
    // plain rotation.
    const std::size_t rot =
        budget->rotation > 0
            ? static_cast<std::size_t>(budget->rotation) % n_fibers
            : 0;
    for (std::size_t i = 0; i < n_fibers; ++i) {
      const std::size_t fiber =
          budget->charge_order != nullptr
              ? static_cast<std::size_t>(budget->charge_order[i])
              : (i + rot) % n_fibers;
      if (fibers_[fiber].routed == 0) continue;
      const bool degradable = ports_[fiber].degradable();
      const std::uint64_t exact_cost = degradable ? d * kk : kk;
      budget->ops_exact_estimate += exact_cost;
      const bool degrade =
          budget->force_degraded ||
          (budget->op_budget > 0 &&
           budget->ops_charged + exact_cost > budget->op_budget);
      budget->ops_charged += degrade && degradable ? kk : exact_cost;
      if (degrade && degradable) {
        fibers_[fiber].degraded = true;
        budget->degraded_ports += 1;
      }
    }
  }

  const bool trace_fibers =
      telemetry_ != nullptr && telemetry_->at(obs::TraceDetail::kFibers);
  const obs::StageTimer fanout_timer(telemetry_, obs::Stage::kFanout,
                                     trace_slot_);
  for (std::size_t fiber = 0; fiber < n_fibers; ++fiber) {
    const FiberGroups& groups = fibers_[fiber];
    if (groups.routed == 0) continue;
    const std::uint64_t fiber_t0 = trace_fibers ? util::now_ns() : 0;
    const std::span<std::uint32_t> ends =
        std::span(group_).subspan(fiber * uk, uk);
    const std::uint32_t lo = groups.base;
    const std::uint32_t hi = ends[uk - 1];
    std::int32_t granted = 0;
    if (lo != hi) {
      try {
        granted = ports_[fiber].schedule_groups(
            lo, ends, members_, row_of(fiber), bits_of(fiber),
            health != nullptr ? &(*health)[fiber] : nullptr, groups.degraded,
            decisions);
      } catch (...) {
        // A kernel bug must not take the other fibers' grants down with
        // it; the fiber's requests are rejected and the fault shows up in
        // metrics.
        for (std::uint32_t pos = lo; pos < hi; ++pos) {
          decisions[members_[pos]] =
              PortDecision::reject(RejectReason::kInternalError);
        }
      }
    }
    std::fill(ends.begin(), ends.end(), 0);
    if (trace_fibers) {
      obs::TraceEvent e;
      e.ts_ns = fiber_t0;
      e.dur_ns = util::now_ns() - fiber_t0;
      e.slot = trace_slot_;
      e.a = groups.routed;
      e.b = static_cast<std::uint64_t>(granted);
      e.fiber = static_cast<std::int32_t>(fiber);
      e.kind = obs::EventKind::kFiberSchedule;
      e.detail = groups.degraded ? 1 : 0;
      telemetry_->record(e);
    }
  }
}

std::vector<PortDecision> DistributedScheduler::schedule_slot(
    std::span<const SlotRequest> requests,
    const std::vector<std::vector<std::uint8_t>>* availability,
    const std::vector<HealthMask>* health) {
  std::vector<PortDecision> decisions(requests.size());
  if (availability != nullptr &&
      availability->size() != static_cast<std::size_t>(n_output_fibers())) {
    std::fill(decisions.begin(), decisions.end(),
              PortDecision::reject(RejectReason::kBadAvailabilityMask));
    return decisions;
  }
  // A ragged inner mask is caught per fiber by the grouping pass, which
  // rejects only that fiber's requests with kBadAvailabilityMask.
  const auto row_of = [&](std::size_t fiber) {
    return availability != nullptr
               ? std::span<const std::uint8_t>((*availability)[fiber])
               : std::span<const std::uint8_t>{};
  };
  const auto no_bits = [](std::size_t) {
    return std::span<const std::uint64_t>{};
  };
  schedule_slot_impl(requests, row_of, no_bits, health, nullptr, decisions);
  return decisions;
}

void DistributedScheduler::schedule_slot_into(
    std::span<const SlotRequest> requests, AvailabilityView availability,
    const std::vector<HealthMask>* health, SlotBudget* budget,
    std::span<PortDecision> decisions) {
  WDM_CHECK_MSG(decisions.size() == requests.size(),
                "one decision slot per request");
  if (!availability.empty() && (availability.n_fibers() != n_output_fibers() ||
                                availability.k() != k())) {
    std::fill(decisions.begin(), decisions.end(),
              PortDecision::reject(RejectReason::kBadAvailabilityMask));
    return;
  }
  const auto row_of = [&](std::size_t fiber) {
    return availability.empty()
               ? std::span<const std::uint8_t>{}
               : availability.row(static_cast<std::int32_t>(fiber));
  };
  const auto bits_of = [&](std::size_t fiber) {
    return availability.empty()
               ? std::span<const std::uint64_t>{}
               : availability.bits_row(static_cast<std::int32_t>(fiber));
  };
  schedule_slot_impl(requests, row_of, bits_of, health, budget, decisions);
}

void DistributedScheduler::save_state(util::SnapshotWriter& w) const {
  w.u64(ports_.size());
  for (const auto& port : ports_) port.save_state(w);
}

void DistributedScheduler::restore_state(util::SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  WDM_CHECK_MSG(n == ports_.size(),
                "snapshot port count does not match this scheduler's N");
  for (auto& port : ports_) port.restore_state(r);
}

}  // namespace wdm::core
