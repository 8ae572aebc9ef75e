#include "core/distributed.hpp"

#include <algorithm>

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
  for (auto& port : ports_) port.reserve_batch(max_requests_per_slot);
}

template <typename RowFn, typename BitsFn>
void DistributedScheduler::schedule_slot_impl(
    std::span<const SlotRequest> requests, RowFn&& row_of, BitsFn&& bits_of,
    const std::vector<HealthMask>* health, SlotBudget* budget,
    std::span<PortDecision> decisions) {
  const auto n_fibers = static_cast<std::size_t>(n_output_fibers());
  std::fill(decisions.begin(), decisions.end(), PortDecision{});

  // Externally supplied data is rejected per-request, never with a throw: a
  // malformed SlotRequest (or a wrong-shaped availability or health vector)
  // costs the affected grants only, not the slot or the process.
  if (health != nullptr && health->size() != n_fibers) {
    for (auto& d : decisions) {
      d = PortDecision::reject(RejectReason::kBadHealthMask);
    }
    return;
  }

  // Partition the slot's requests into the N destination subsets — a stable
  // counting sort into the reusable CSR arenas, so no request appears in two
  // subsets and arrival order within a fiber is preserved. Per-request field
  // validation happens inside the per-port scheduler. A faulted destination
  // fiber outranks field validation (the fiber is down, nothing destined to
  // it is inspected), but not output-fiber validity — an out-of-range fiber
  // has no health to consult.
  {
    const obs::StageTimer partition_timer(telemetry_, obs::Stage::kPartition,
                                          trace_slot_);
    soa_.fiber_offsets.assign(n_fibers + 1, 0);
    for (std::size_t idx = 0; idx < requests.size(); ++idx) {
      const auto& r = requests[idx];
      // One predicted branch per request on the all-valid fast path; the
      // cold branch resolves the precise rejection in the documented order
      // (output fiber, then fiber health, then priority).
      const bool fiber_ok =
          r.output_fiber >= 0 && r.output_fiber < n_output_fibers();
      if (fiber_ok && health == nullptr && r.priority >= 0) {
        soa_.fiber_offsets[static_cast<std::size_t>(r.output_fiber) + 1] += 1;
        continue;
      }
      if (!fiber_ok) {
        decisions[idx] =
            PortDecision::reject(RejectReason::kInvalidOutputFiber);
        continue;
      }
      if (health != nullptr &&
          (*health)[static_cast<std::size_t>(r.output_fiber)].fiber_faulted) {
        decisions[idx] = PortDecision::reject(RejectReason::kFaulted);
        continue;
      }
      if (r.priority < 0) {
        decisions[idx] = PortDecision::reject(RejectReason::kInvalidPriority);
        continue;
      }
      soa_.fiber_offsets[static_cast<std::size_t>(r.output_fiber) + 1] += 1;
    }
    for (std::size_t fiber = 0; fiber < n_fibers; ++fiber) {
      soa_.fiber_offsets[fiber + 1] += soa_.fiber_offsets[fiber];
    }
    const std::size_t total = soa_.fiber_offsets[n_fibers];
    soa_.resize_entries(total);
    csr_decisions_.resize(total);
    fiber_cursor_.assign(soa_.fiber_offsets.begin(),
                         soa_.fiber_offsets.end() - 1);
    for (std::size_t idx = 0; idx < requests.size(); ++idx) {
      if (decisions[idx].reason != RejectReason::kUndecided) continue;
      const auto& r = requests[idx];
      const std::size_t pos =
          fiber_cursor_[static_cast<std::size_t>(r.output_fiber)]++;
      soa_.origin[pos] = static_cast<std::uint32_t>(idx);
      soa_.wavelength[pos] = r.wavelength;
      soa_.input_fiber[pos] = r.input_fiber;
      soa_.duration[pos] = r.duration;
    }
  }

  // Deadline-bounded degradation plan. The op-budget decisions are made here,
  // in charge order, *before* any scheduling work, so which ports degrade
  // depends on the budget and the partition alone. Wall-clock
  // deadlines never reach this layer — the interconnect judges the whole
  // step and feeds the verdict back through force_degraded.
  const bool budgeted = budget != nullptr && budget->active();
  if (budgeted) {
    degrade_flags_.assign(n_fibers, 0);
    const auto kk = static_cast<std::uint64_t>(k());
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
      if (soa_.fiber_offsets[fiber] == soa_.fiber_offsets[fiber + 1]) continue;
      const bool degradable = ports_[fiber].degradable();
      const std::uint64_t exact_cost = degradable ? d * kk : kk;
      budget->ops_exact_estimate += exact_cost;
      bool degrade = budget->force_degraded;
      if (!degrade && budget->op_budget > 0 &&
          budget->ops_charged + exact_cost > budget->op_budget) {
        degrade = true;
      }
      budget->ops_charged += degrade && degradable ? kk : exact_cost;
      if (degrade && degradable) {
        degrade_flags_[fiber] = 1;
        budget->degraded_ports += 1;
      }
    }
  }

  const bool trace_fibers =
      telemetry_ != nullptr && telemetry_->at(obs::TraceDetail::kFibers);
  const obs::StageTimer fanout_timer(telemetry_, obs::Stage::kFanout,
                                     trace_slot_);
  for (std::size_t fiber = 0; fiber < n_fibers; ++fiber) {
    const std::size_t lo = soa_.fiber_offsets[fiber];
    const std::size_t hi = soa_.fiber_offsets[fiber + 1];
    if (lo == hi) continue;
    const std::uint64_t fiber_t0 = trace_fibers ? util::now_ns() : 0;
    const std::span<PortDecision> staged{csr_decisions_.data() + lo, hi - lo};
    const HealthMask* fiber_health =
        health != nullptr ? &(*health)[fiber] : nullptr;
    const bool degraded = budgeted && degrade_flags_[fiber] != 0;
    std::uint64_t granted = 0;
    try {
      ports_[fiber].schedule_batch_into(
          std::span<const std::int32_t>{soa_.wavelength.data() + lo, hi - lo},
          std::span<const std::int32_t>{soa_.input_fiber.data() + lo, hi - lo},
          std::span<const std::int32_t>{soa_.duration.data() + lo, hi - lo},
          row_of(fiber), bits_of(fiber), fiber_health, staged, degraded);
      // Every routed request passes through here, so this is where a
      // decision the port never made becomes an explicit internal error.
      for (std::size_t i = 0; i < staged.size(); ++i) {
        PortDecision d = staged[i];
        if (d.reason == RejectReason::kUndecided) {
          WDM_DCHECK(!"schedule_slot left a request undecided");
          d = PortDecision::reject(RejectReason::kInternalError);
        }
        decisions[soa_.origin[lo + i]] = d;
        granted += d.granted ? 1 : 0;
      }
    } catch (...) {
      // A kernel bug must not take the other fibers' grants down with it;
      // the fiber's requests are rejected and the fault shows up in metrics.
      for (std::size_t i = lo; i < hi; ++i) {
        decisions[soa_.origin[i]] =
            PortDecision::reject(RejectReason::kInternalError);
      }
    }
    if (trace_fibers) {
      obs::TraceEvent e;
      e.ts_ns = fiber_t0;
      e.dur_ns = util::now_ns() - fiber_t0;
      e.slot = trace_slot_;
      e.a = hi - lo;
      e.b = granted;
      e.fiber = static_cast<std::int32_t>(fiber);
      e.kind = obs::EventKind::kFiberSchedule;
      e.detail = degraded ? 1 : 0;
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
    for (auto& d : decisions) {
      d = PortDecision::reject(RejectReason::kBadAvailabilityMask);
    }
    return decisions;
  }
  // A ragged inner mask is caught per fiber by the port scheduler, which
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
    for (auto& d : decisions) {
      d = PortDecision::reject(RejectReason::kBadAvailabilityMask);
    }
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
