// Overload control plane: admission (token buckets + bounded ingress
// queues + drop policies), deadline-bounded degradation (op-budget plan,
// validity, determinism, hysteresis), and the extended conservation law
// under randomized overload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "sim/admission.hpp"
#include "sim/checkpoint.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace wdm {
namespace {

sim::InterconnectConfig overload_config(std::int32_t n_fibers,
                                        std::int32_t k) {
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n_fibers;
  cfg.scheme = core::ConversionScheme::circular(k, 1, 1);
  cfg.seed = 7;
  return cfg;
}

core::SlotRequest request(std::int32_t input_fiber, std::int32_t wavelength,
                          std::int32_t output_fiber, std::uint64_t id,
                          std::int32_t priority = 0) {
  return core::SlotRequest{input_fiber, wavelength, output_fiber, id, 1,
                           priority};
}

// ----------------------------------------------------------- admission

TEST(Admission, TokenBucketMetersAndQueueDrainsInOrder) {
  auto cfg = overload_config(1, 4);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.0;
  cfg.admission.bucket_depth = 1.0;
  cfg.admission.queue_capacity = 8;
  sim::Interconnect ic(cfg);
  sim::MetricsCollector metrics(1, 4);

  // Three arrivals against one token: one admitted, two parked.
  std::vector<core::SlotRequest> burst{request(0, 0, 0, 1), request(0, 1, 0, 2),
                                       request(0, 2, 0, 3)};
  auto s = ic.step(burst);
  metrics.record_slot(s);
  EXPECT_EQ(s.arrivals, 3u);
  EXPECT_EQ(s.granted, 1u);
  EXPECT_EQ(s.deferred_overload, 2u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(ic.ingress_queue_depth(), 2u);

  // The queue drains one per slot as the bucket refills, ahead of nothing.
  s = ic.step({});
  metrics.record_slot(s);
  EXPECT_EQ(s.ingress_releases, 1u);
  EXPECT_EQ(s.granted, 1u);
  EXPECT_EQ(ic.ingress_queue_depth(), 1u);
  s = ic.step({});
  metrics.record_slot(s);
  EXPECT_EQ(s.ingress_releases, 1u);
  EXPECT_EQ(s.granted, 1u);
  EXPECT_EQ(ic.ingress_queue_depth(), 0u);
  EXPECT_EQ(metrics.shed_overload(), 0u);
}

TEST(Admission, TailDropShedsWhenQueueIsFull) {
  auto cfg = overload_config(1, 4);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.0;
  cfg.admission.bucket_depth = 1.0;
  cfg.admission.queue_capacity = 1;
  cfg.admission.drop_policy = sim::DropPolicy::kTailDrop;
  sim::Interconnect ic(cfg);
  sim::MetricsCollector metrics(1, 4);

  std::vector<core::SlotRequest> burst{request(0, 0, 0, 1), request(0, 1, 0, 2),
                                       request(0, 2, 0, 3)};
  const auto s = ic.step(burst);
  metrics.record_slot(s);
  EXPECT_EQ(s.granted, 1u);
  EXPECT_EQ(s.deferred_overload, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.shed_overload, 1u);
  EXPECT_EQ(ic.ingress_queue_depth(), 1u);
}

TEST(Admission, PriorityShedEvictsWorseClassForBetter) {
  auto cfg = overload_config(1, 4);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.0;
  cfg.admission.bucket_depth = 1.0;
  cfg.admission.queue_capacity = 1;
  cfg.admission.drop_policy = sim::DropPolicy::kPriorityShed;
  sim::Interconnect ic(cfg);
  sim::MetricsCollector metrics(1, 4);

  // Token goes to the first class-2 request; the second queues; the class-0
  // arrival finds the queue full and evicts the queued class-2 request.
  std::vector<core::SlotRequest> burst{request(0, 0, 0, 1, 2),
                                       request(0, 1, 0, 2, 2),
                                       request(0, 2, 0, 3, 0)};
  auto s = ic.step(burst);
  metrics.record_slot(s);
  EXPECT_EQ(s.deferred_overload, 2u);
  EXPECT_EQ(s.ingress_releases, 1u);  // the eviction left the queue
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.shed_overload, 1u);
  EXPECT_EQ(ic.ingress_queue_depth(), 1u);

  // A same-or-worse class arrival cannot evict: it is shed instead.
  const std::vector<core::SlotRequest> next{request(0, 3, 0, 4, 0),
                                            request(0, 0, 0, 5, 1)};
  s = ic.step(next);
  metrics.record_slot(s);
  // Slot drains the queued class-0 entry with the refilled token first, so
  // the fresh class-0 request queues and the class-1 finds only a peer-or-
  // better entry queued.
  EXPECT_EQ(s.ingress_releases, 1u);
  EXPECT_EQ(s.shed_overload, 1u);
  EXPECT_EQ(ic.ingress_queue_depth(), 1u);
}

TEST(Admission, DisabledConfigLeavesCountersAtZero) {
  auto cfg = overload_config(2, 4);
  sim::Interconnect ic(cfg);
  EXPECT_EQ(ic.admission(), nullptr);
  const std::vector<core::SlotRequest> arrivals{request(0, 0, 0, 1),
                                                request(1, 1, 1, 2)};
  const auto s = ic.step(arrivals);
  EXPECT_EQ(s.deferred_overload, 0u);
  EXPECT_EQ(s.ingress_releases, 0u);
  EXPECT_EQ(s.shed_overload, 0u);
  EXPECT_EQ(s.granted, 2u);
}

// --------------------------------------------------------- degradation

TEST(Degradation, OpBudgetDowngradesPortsAndStaysValid) {
  // Scheduler-level: under a blown op budget every grant must still be a
  // valid matching (no channel double-grant, conversion range respected)
  // and no fiber may exceed the Hopcroft–Karp optimum on its request set.
  util::Rng rng(0xD16E57);
  for (int trial = 0; trial < 400; ++trial) {
    const auto k = static_cast<std::int32_t>(4 + rng.uniform_below(8));
    const auto scheme = core::ConversionScheme::circular(k, 1, 1);
    const auto n_fibers = static_cast<std::int32_t>(2 + rng.uniform_below(4));
    core::DistributedScheduler sched(n_fibers, scheme,
                                     core::Algorithm::kBreakFirstAvailable,
                                     core::Arbitration::kRoundRobin, 11);

    std::vector<core::SlotRequest> requests;
    std::vector<std::uint8_t> plane(
        static_cast<std::size_t>(n_fibers) * static_cast<std::size_t>(k));
    for (auto& free : plane) free = rng.bernoulli(0.7) ? 1 : 0;
    for (std::int32_t fiber = 0; fiber < n_fibers; ++fiber) {
      for (std::int32_t w = 0; w < k; ++w) {
        if (rng.bernoulli(0.5)) {
          requests.push_back(request(0, w, fiber, requests.size() + 1));
        }
      }
    }

    core::SlotBudget budget;
    // Roughly half the exact cost: some ports schedule exact, the rest are
    // planned degraded.
    budget.op_budget = static_cast<std::uint64_t>(n_fibers) *
                       static_cast<std::uint64_t>(scheme.degree()) *
                       static_cast<std::uint64_t>(k) / 2;
    std::vector<core::PortDecision> decisions(requests.size());
    sched.schedule_slot_into(requests,
                             core::AvailabilityView(plane.data(), n_fibers, k),
                             nullptr, &budget, decisions);
    // The budget is best-effort: a degraded port still costs its O(k) sweep,
    // so the charge may overshoot by at most k per degraded port — never by
    // a full exact sweep.
    EXPECT_LE(budget.ops_charged, budget.ops_exact_estimate);
    EXPECT_LE(budget.ops_charged,
              budget.op_budget + static_cast<std::uint64_t>(n_fibers) *
                                     static_cast<std::uint64_t>(k));
    if (budget.ops_exact_estimate > budget.op_budget) {
      EXPECT_GT(budget.degraded_ports, 0) << "trial " << trial;
    }

    for (std::int32_t fiber = 0; fiber < n_fibers; ++fiber) {
      core::RequestVector rv(k);
      const auto row = static_cast<std::ptrdiff_t>(fiber) * k;
      std::vector<std::uint8_t> mask(plane.begin() + row,
                                     plane.begin() + row + k);
      std::vector<std::uint8_t> channel_used(static_cast<std::size_t>(k), 0);
      std::int32_t granted = 0;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].output_fiber != fiber) continue;
        rv.add(requests[i].wavelength);
        if (!decisions[i].granted) continue;
        granted += 1;
        const auto ch = decisions[i].channel;
        ASSERT_GE(ch, 0);
        ASSERT_LT(ch, k);
        EXPECT_EQ(channel_used[static_cast<std::size_t>(ch)], 0)
            << "channel double-granted, trial " << trial;
        channel_used[static_cast<std::size_t>(ch)] = 1;
        EXPECT_NE(mask[static_cast<std::size_t>(ch)], 0)
            << "occupied channel granted, trial " << trial;
        EXPECT_TRUE(scheme.can_convert(requests[i].wavelength, ch))
            << "conversion range violated, trial " << trial;
      }
      EXPECT_LE(granted, test::oracle_max_matching(scheme, rv, mask))
          << "degraded port beat the maximum-matching oracle, trial " << trial;
    }
  }
}

TEST(Degradation, OpBudgetPlanIsPoolIndependent) {
  // The degrade plan is computed in charge order from the grouping alone,
  // before any scheduling work: it equals the cost-model walk below, and the
  // same slot through a twin scheduler degrades the same ports and makes
  // the same decisions.
  const std::int32_t n_fibers = 6;
  const std::int32_t k = 8;
  const auto scheme = core::ConversionScheme::circular(k, 1, 1);
  util::Rng rng(0xCAFE);
  for (int trial = 0; trial < 50; ++trial) {
    core::DistributedScheduler first(n_fibers, scheme,
                                     core::Algorithm::kBreakFirstAvailable,
                                     core::Arbitration::kRoundRobin, 3);
    core::DistributedScheduler twin(n_fibers, scheme,
                                    core::Algorithm::kBreakFirstAvailable,
                                    core::Arbitration::kRoundRobin, 3);
    std::vector<core::SlotRequest> requests;
    std::vector<bool> pending(static_cast<std::size_t>(n_fibers), false);
    for (std::int32_t fiber = 0; fiber < n_fibers; ++fiber) {
      for (std::int32_t w = 0; w < k; ++w) {
        if (rng.bernoulli(0.6)) {
          requests.push_back(request(0, w, fiber, requests.size() + 1));
          pending[static_cast<std::size_t>(fiber)] = true;
        }
      }
    }
    core::SlotBudget budget_a;
    core::SlotBudget budget_b;
    budget_a.op_budget = budget_b.op_budget = 60;
    std::vector<core::PortDecision> a(requests.size());
    std::vector<core::PortDecision> b(requests.size());
    first.schedule_slot_into(requests, core::AvailabilityView{}, nullptr,
                             &budget_a, a);
    twin.schedule_slot_into(requests, core::AvailabilityView{}, nullptr,
                            &budget_b, b);

    // Fibers in order (rotation 0): an exact sweep costs d*k, a degraded
    // one k; a fiber degrades once its exact cost no longer fits.
    const auto exact = static_cast<std::uint64_t>(scheme.degree() * k);
    std::uint64_t charged = 0;
    std::int32_t degraded = 0;
    for (std::int32_t fiber = 0; fiber < n_fibers; ++fiber) {
      if (!pending[static_cast<std::size_t>(fiber)]) continue;
      if (charged + exact > budget_a.op_budget) {
        charged += static_cast<std::uint64_t>(k);
        degraded += 1;
      } else {
        charged += exact;
      }
    }
    EXPECT_EQ(budget_a.degraded_ports, degraded) << "trial " << trial;
    EXPECT_EQ(budget_a.ops_charged, charged) << "trial " << trial;
    EXPECT_EQ(budget_a.degraded_ports, budget_b.degraded_ports);
    EXPECT_EQ(budget_a.ops_charged, budget_b.ops_charged);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(a[i].granted, b[i].granted) << "trial " << trial;
      ASSERT_EQ(a[i].channel, b[i].channel) << "trial " << trial;
      ASSERT_EQ(a[i].reason, b[i].reason) << "trial " << trial;
    }
  }
}

TEST(Degradation, HysteresisEntersAndRecovers) {
  auto cfg = overload_config(4, 8);
  cfg.degrade.op_budget = 32;  // one exact d*k port (3*8) fits; two do not
  cfg.degrade.recovery_slots = 3;
  sim::Interconnect ic(cfg);
  sim::MetricsCollector metrics(4, 8);

  // Saturating slot: every fiber has pending work, the budget blows, and
  // hysteresis latches degraded mode.
  std::vector<core::SlotRequest> heavy;
  for (std::int32_t fiber = 0; fiber < 4; ++fiber) {
    for (std::int32_t w = 0; w < 8; ++w) {
      heavy.push_back(request(w % 4, w, fiber, heavy.size() + 1));
    }
  }
  auto s = ic.step(heavy);
  metrics.record_slot(s);
  EXPECT_GT(s.degraded_ports, 0u);
  EXPECT_TRUE(ic.degraded_mode());

  // While latched, even light slots schedule degraded (force_degraded) —
  // and a light slot whose exact cost fits the budget counts as calm.
  const std::vector<core::SlotRequest> light{request(0, 0, 0, 1000)};
  s = ic.step(light);
  metrics.record_slot(s);
  EXPECT_TRUE(ic.degraded_mode());
  EXPECT_EQ(s.degraded_ports, 1u);

  // Two more calm (idle) slots complete recovery_slots = 3 and re-arm.
  s = ic.step({});
  metrics.record_slot(s);
  EXPECT_TRUE(ic.degraded_mode());
  s = ic.step({});
  metrics.record_slot(s);
  EXPECT_FALSE(ic.degraded_mode());
  EXPECT_GT(metrics.degraded_slots(), 0u);
}

// ------------------------------------------------- conservation (fuzz)

// ------------------------------------------------- adaptive admission

TEST(AdaptiveAdmission, RateRisesUnderBacklogAndStaysClamped) {
  auto cfg = overload_config(1, 4);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.0;
  cfg.admission.bucket_depth = 1.0;
  cfg.admission.queue_capacity = 64;
  cfg.admission.adaptive.enabled = true;
  cfg.admission.adaptive.min_tokens_per_slot = 0.25;
  cfg.admission.adaptive.max_tokens_per_slot = 3.0;
  cfg.admission.adaptive.alpha = 0.5;
  cfg.admission.adaptive.update_every = 4;
  cfg.admission.adaptive.hold_ticks = 1;
  sim::Interconnect ic(cfg);
  ASSERT_NE(ic.admission(), nullptr);
  EXPECT_DOUBLE_EQ(ic.admission()->token_rate(0), 1.0);

  // Sustained pressure: 3 distinct-wavelength arrivals per slot against an
  // initial rate of 1 builds ingress backlog; the controller must raise the
  // rate above the static config, and never past the ceiling.
  double peak = 0.0;
  for (std::uint64_t slot = 0; slot < 64; ++slot) {
    std::vector<core::SlotRequest> burst{
        request(0, 0, 0, slot * 3 + 1), request(0, 1, 0, slot * 3 + 2),
        request(0, 2, 0, slot * 3 + 3)};
    ic.step(burst);
    const double rate = ic.admission()->token_rate(0);
    EXPECT_GE(rate, cfg.admission.adaptive.min_tokens_per_slot);
    EXPECT_LE(rate, cfg.admission.adaptive.max_tokens_per_slot);
    peak = std::max(peak, rate);
  }
  EXPECT_GT(peak, 1.0);
  EXPECT_GT(ic.admission()->grant_estimate(0), 0.0);

  // Starvation: with no arrivals the grant estimate decays and the rate
  // settles back down to the floor, never below it.
  for (std::uint64_t slot = 0; slot < 256; ++slot) ic.step({});
  const double idle_rate = ic.admission()->token_rate(0);
  EXPECT_GE(idle_rate, cfg.admission.adaptive.min_tokens_per_slot);
  EXPECT_LT(idle_rate, peak);
  EXPECT_DOUBLE_EQ(idle_rate, cfg.admission.adaptive.min_tokens_per_slot);
}

TEST(AdaptiveAdmission, StaticConfigKeepsStaticRate) {
  auto cfg = overload_config(2, 4);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.5;
  cfg.admission.bucket_depth = 2.0;
  sim::Interconnect ic(cfg);
  for (std::uint64_t slot = 0; slot < 32; ++slot) {
    const std::vector<core::SlotRequest> one{request(0, 0, 0, slot + 1)};
    ic.step(one);
    EXPECT_DOUBLE_EQ(ic.admission()->token_rate(0), 1.5);
    EXPECT_DOUBLE_EQ(ic.admission()->grant_estimate(0), 0.0);
  }
}

TEST(AdaptiveAdmission, ControllerStateSurvivesCheckpoint) {
  auto cfg = overload_config(2, 6);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.0;
  cfg.admission.bucket_depth = 2.0;
  cfg.admission.queue_capacity = 32;
  cfg.admission.adaptive.enabled = true;
  cfg.admission.adaptive.update_every = 4;
  sim::TrafficConfig tcfg;
  tcfg.load = 0.95;
  sim::TrafficGenerator traffic(2, 6, tcfg, 31);
  sim::Interconnect ic(cfg);
  for (std::uint64_t slot = 0; slot < 50; ++slot) {
    ic.step(traffic.next_slot(ic.input_channel_busy()));
  }

  std::stringstream ss;
  sim::save_checkpoint(ss, ic, traffic);
  sim::Interconnect restored(cfg);
  sim::TrafficGenerator restored_traffic(2, 6, tcfg, 1);
  sim::load_checkpoint(ss, restored, restored_traffic);
  for (std::int32_t fiber = 0; fiber < 2; ++fiber) {
    EXPECT_DOUBLE_EQ(restored.admission()->token_rate(fiber),
                     ic.admission()->token_rate(fiber));
    EXPECT_DOUBLE_EQ(restored.admission()->grant_estimate(fiber),
                     ic.admission()->grant_estimate(fiber));
  }
  EXPECT_EQ(sim::state_digest(restored), sim::state_digest(ic));

  // The controllers must keep evolving identically after the restore — the
  // tick phase (ctrl_slots_) is part of the state, not just the rates.
  for (std::uint64_t slot = 0; slot < 30; ++slot) {
    ic.step(traffic.next_slot(ic.input_channel_busy()));
    restored.step(restored_traffic.next_slot(restored.input_channel_busy()));
  }
  EXPECT_EQ(sim::state_digest(restored), sim::state_digest(ic));
}

TEST(AdaptiveAdmission, AdaptiveFlagMismatchIsRejectedOnRestore) {
  auto cfg = overload_config(1, 4);
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 1.0;
  cfg.admission.adaptive.enabled = true;
  sim::Interconnect ic(cfg);
  std::stringstream ss;
  sim::save_checkpoint(ss, ic);

  auto other = cfg;
  other.admission.adaptive.enabled = false;
  sim::Interconnect target(other);
  EXPECT_THROW(sim::load_checkpoint(ss, target), std::logic_error);
}

// Replay determinism sweep: adaptive admission x wall-clock deadline, each
// restored from a mid-run checkpoint. Every cell must reproduce the
// uninterrupted run's state digest bit for bit.
TEST(AdaptiveAdmission, ReplayDeterminismSweep) {
  constexpr std::int32_t kFibers = 4;
  constexpr std::int32_t kWavelengths = 6;
  constexpr std::uint64_t kSlots = 40;
  constexpr std::uint64_t kSnapshotAt = 20;

  for (const bool adaptive : {false, true}) {
    for (const bool deadline : {false, true}) {
      auto cfg = overload_config(kFibers, kWavelengths);
      cfg.admission.enabled = true;
      cfg.admission.tokens_per_slot = 1.0;
      cfg.admission.bucket_depth = 2.0;
      cfg.admission.queue_capacity = 16;
      cfg.admission.adaptive.enabled = adaptive;
      cfg.admission.adaptive.update_every = 4;
      cfg.degrade.recovery_slots = 3;
      if (deadline) cfg.degrade.slot_deadline_ns = 1;  // every slot overruns

      sim::TrafficConfig tcfg;
      tcfg.load = 0.9;
      sim::TrafficGenerator source(kFibers, kWavelengths, tcfg, 131);
      auto trace = sim::capture_trace(source, kFibers, kWavelengths, kSlots);

      sim::Interconnect original(cfg);
      original.set_deadline_log(deadline ? &trace.deadline_overruns : nullptr);
      std::stringstream checkpoint;
      for (std::size_t slot = 0; slot < trace.slots.size(); ++slot) {
        if (slot == kSnapshotAt) sim::save_checkpoint(checkpoint, original);
        original.step(trace.slots[slot]);
      }
      original.set_deadline_log(nullptr);
      if (deadline) {
        ASSERT_FALSE(trace.deadline_overruns.empty());
      }
      const auto want = sim::state_digest(original);

      const std::string cell = std::string("adaptive=") +
                               (adaptive ? "1" : "0") + " deadline=" +
                               (deadline ? "1" : "0");
      std::stringstream frame(checkpoint.str());
      sim::Interconnect resumed(cfg);
      sim::load_checkpoint(frame, resumed);
      resumed.set_deadline_script(&trace.deadline_overruns);
      for (std::size_t slot = kSnapshotAt; slot < trace.slots.size(); ++slot) {
        resumed.step(trace.slots[slot]);
      }
      resumed.set_deadline_script(nullptr);
      EXPECT_EQ(sim::state_digest(resumed), want) << cell;
    }
  }
}

TEST(OverloadFuzz, ConservationHoldsAtTwiceSaturation) {
  // Random 2x-overload traffic (with malformed and multi-class requests)
  // through admission + degradation + faults + retries. record_slot enforces
  //   granted + rejected + deferred_faulted + deferred_overload ==
  //       arrivals + retry_attempts + ingress_releases
  // every slot, and the queue-depth identities are checked on top.
  util::Rng rng(0x0B5E55);
  for (int round = 0; round < 12; ++round) {
    auto cfg = overload_config(4, 6);
    cfg.seed = 100 + static_cast<std::uint64_t>(round);
    cfg.policy = round % 2 == 0 ? sim::OccupiedPolicy::kNoDisturb
                                : sim::OccupiedPolicy::kRearrange;
    cfg.admission.enabled = true;
    cfg.admission.tokens_per_slot = 1.5;
    cfg.admission.bucket_depth = 3.0;
    cfg.admission.queue_capacity = 6;
    cfg.admission.drop_policy = round % 2 == 0 ? sim::DropPolicy::kTailDrop
                                               : sim::DropPolicy::kPriorityShed;
    cfg.degrade.op_budget = 40;
    cfg.degrade.recovery_slots = 2;
    cfg.retry.max_retries = 2;
    cfg.retry.queue_capacity = 3;
    cfg.faults.script = {
        sim::FaultEvent{5, sim::FaultKind::kFiber, 1, 0, false},
        sim::FaultEvent{15, sim::FaultKind::kFiber, 1, 0, true},
    };
    sim::Interconnect ic(cfg);
    sim::MetricsCollector metrics(4, 6);

    std::uint64_t deferred_total = 0;
    std::uint64_t released_total = 0;
    for (std::uint64_t slot = 0; slot < 60; ++slot) {
      std::vector<core::SlotRequest> arrivals;
      // ~2x saturation: on average two requests per output channel.
      const auto count = rng.uniform_below(2 * 4 * 6);
      for (std::uint64_t i = 0; i < count; ++i) {
        auto r = request(static_cast<std::int32_t>(rng.uniform_below(4)),
                         static_cast<std::int32_t>(rng.uniform_below(6)),
                         static_cast<std::int32_t>(rng.uniform_below(4)),
                         slot * 1000 + i,
                         static_cast<std::int32_t>(rng.uniform_below(3)));
        r.duration = static_cast<std::int32_t>(1 + rng.uniform_below(3));
        if (rng.bernoulli(0.05)) r.wavelength = 99;  // malformed
        if (rng.bernoulli(0.03)) r.output_fiber = -1;
        arrivals.push_back(r);
      }
      const auto before = ic.ingress_queue_depth();
      const auto stats = ic.step(arrivals);
      metrics.record_slot(stats);  // throws if conservation breaks
      EXPECT_EQ(ic.ingress_queue_depth(),
                before + stats.deferred_overload - stats.ingress_releases);
      EXPECT_LE(ic.retry_queue_depth(), cfg.retry.queue_capacity);
      EXPECT_LE(ic.ingress_queue_depth(), cfg.admission.queue_capacity);
      deferred_total += stats.deferred_overload;
      released_total += stats.ingress_releases;
    }
    // The run must actually have exercised the overload machinery.
    EXPECT_GT(deferred_total, 0u) << "round " << round;
    EXPECT_GT(released_total, 0u) << "round " << round;
    EXPECT_GT(metrics.shed_overload() + metrics.degraded_ports(), 0u)
        << "round " << round;
  }
}

// ---------------------------------------------------------------- soak
//
// Long-horizon run with every subsystem live at once — admission, op-budget
// degradation with hysteresis, retries, stochastic channel faults, saturating
// multi-class traffic — with the conservation law enforced every slot and a
// checkpoint round-trip digest check every few thousand slots. Skipped unless
// WDM_SOAK_TESTS=1 (the nightly CI job sets it); far too slow-by-volume for
// the PR loop, but the first place a slow state leak would surface.
TEST(OverloadSoak, LongRunConservationAndCheckpointStability) {
  if (std::getenv("WDM_SOAK_TESTS") == nullptr) {
    GTEST_SKIP() << "set WDM_SOAK_TESTS=1 to run the soak";
  }
  constexpr std::uint64_t kSlots = 50'000;
  constexpr std::uint64_t kCheckpointEvery = 5'000;

  auto cfg = overload_config(16, 8);
  cfg.retry.max_retries = 3;
  cfg.retry.queue_capacity = 32;
  cfg.faults.channels = sim::MtbfMttr{500.0, 40.0};
  // Channel churn alone rarely faults a whole feasible set at schedule time
  // (busy beats faulted at saturating load), so scripted fiber outages
  // guarantee the retry path runs: arrivals to a downed output fiber park
  // in the retry queue and re-attempt after the repair.
  for (std::uint64_t at = 1'000; at < kSlots; at += 10'000) {
    cfg.faults.script.push_back(
        sim::FaultEvent{at, sim::FaultKind::kFiber, 3, 0, false});
    cfg.faults.script.push_back(
        sim::FaultEvent{at + 200, sim::FaultKind::kFiber, 3, 0, true});
  }
  cfg.admission.enabled = true;
  cfg.admission.tokens_per_slot = 4.0;
  cfg.admission.bucket_depth = 8.0;
  cfg.admission.queue_capacity = 64;
  cfg.admission.drop_policy = sim::DropPolicy::kPriorityShed;
  cfg.degrade.op_budget = 16 * 8;  // half the saturated exact cost
  cfg.degrade.recovery_slots = 8;

  sim::TrafficConfig traffic_cfg;
  traffic_cfg.load = 1.0;  // saturating: every free input channel fires
  traffic_cfg.holding = sim::HoldingTime::kGeometric;
  traffic_cfg.mean_holding = 2.0;
  traffic_cfg.class_mix = {0.4, 0.4, 0.2};

  sim::Interconnect ic(cfg);
  sim::TrafficGenerator traffic(cfg.n_fibers, 8, traffic_cfg, 31337);
  sim::MetricsCollector metrics(cfg.n_fibers, 8);

  for (std::uint64_t slot = 1; slot <= kSlots; ++slot) {
    const auto stats = ic.step(traffic.next_slot(ic.input_channel_busy()));
    metrics.record_slot(stats);  // throws if conservation breaks
    ASSERT_LE(ic.retry_queue_depth(), cfg.retry.queue_capacity);
    ASSERT_LE(ic.ingress_queue_depth(), cfg.admission.queue_capacity);
    if (slot % kCheckpointEvery == 0) {
      std::stringstream frame;
      sim::save_checkpoint(frame, ic, traffic);
      sim::Interconnect restored(cfg);
      sim::TrafficGenerator restored_traffic(cfg.n_fibers, 8, traffic_cfg, 1);
      sim::load_checkpoint(frame, restored, restored_traffic);
      ASSERT_EQ(sim::state_digest(restored), sim::state_digest(ic))
          << "checkpoint divergence at slot " << slot;
    }
  }
  // Saturating load must have driven the whole ladder at least once.
  EXPECT_GT(metrics.shed_overload(), 0u);
  EXPECT_GT(metrics.degraded_slots(), 0u);
  EXPECT_GT(metrics.retry_attempts(), 0u);
  EXPECT_GT(metrics.rejected_faulted() + metrics.dropped_faulted(), 0u);
}

}  // namespace
}  // namespace wdm
