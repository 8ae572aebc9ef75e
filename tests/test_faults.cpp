// Fault injection and graceful degradation (PR 2).
//
// Covers, bottom-up: the HealthMask / apply_health reduction and its
// word-level form fold_health, the
// FaultInjector's determinism contract, degraded-mode optimality of the
// kernels through the scheduler API, interconnect teardown under kNoDisturb
// and re-homing under kRearrange, the bounded retry queue, the fault metrics
// accounting, and end-to-end replay determinism of faulted simulations.
#include <gtest/gtest.h>

#include <vector>

#include "core/distributed.hpp"
#include "core/health.hpp"
#include "core/request_graph.hpp"
#include "core/scheduler.hpp"
#include "core/wave_mask.hpp"
#include "graph/hopcroft_karp.hpp"
#include "sim/faults.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulation.hpp"
#include "sim/traffic.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace wdm {
namespace {

using core::ChannelHealth;
using core::ConversionScheme;
using core::HealthMask;
using core::RequestVector;
using sim::FaultConfig;
using sim::FaultEvent;
using sim::FaultInjector;
using sim::FaultKind;

// ---------------------------------------------------------------- health

TEST(HealthMask, AllHealthyPredicates) {
  HealthMask h;
  EXPECT_TRUE(h.all_healthy());
  h = HealthMask::healthy(4);
  EXPECT_TRUE(h.all_healthy());
  h.channels[2] = ChannelHealth::kConverterFaulted;
  EXPECT_FALSE(h.all_healthy());
  h.channels[2] = ChannelHealth::kHealthy;
  h.fiber_faulted = true;
  EXPECT_FALSE(h.all_healthy());
}

TEST(ApplyHealth, FiberCutRemovesEverything) {
  RequestVector rv(3);
  rv.add(0, 2);
  rv.add(2, 1);
  HealthMask h = HealthMask::healthy(3);
  h.fiber_faulted = true;
  const auto red = core::apply_health(rv, {}, h);
  EXPECT_EQ(red.pre_grant_count, 0);
  for (const auto bit : red.availability) EXPECT_EQ(bit, 0);
}

TEST(ApplyHealth, ChannelFaultIsMaskDeletion) {
  RequestVector rv(3);
  rv.add(1, 2);
  HealthMask h = HealthMask::healthy(3);
  h.channels[1] = ChannelHealth::kChannelFaulted;
  const auto red = core::apply_health(rv, {}, h);
  EXPECT_EQ(red.pre_grant_count, 0);
  EXPECT_EQ(red.availability[0], 1);
  EXPECT_EQ(red.availability[1], 0);
  EXPECT_EQ(red.availability[2], 1);
  EXPECT_EQ(red.requests.count(1), 2);  // requests untouched
}

TEST(ApplyHealth, ConverterFaultPreGrantsSameWavelength) {
  RequestVector rv(3);
  rv.add(1, 2);
  HealthMask h = HealthMask::healthy(3);
  h.channels[1] = ChannelHealth::kConverterFaulted;
  const auto red = core::apply_health(rv, {}, h);
  // One wavelength-1 request is pre-granted channel 1; the channel leaves
  // the availability mask and the request leaves the counts.
  EXPECT_EQ(red.pre_grant_count, 1);
  EXPECT_EQ(red.pre_granted[1], 1);
  EXPECT_EQ(red.availability[1], 0);
  EXPECT_EQ(red.requests.count(1), 1);
}

TEST(ApplyHealth, ConverterFaultWithoutTakersJustDeletes) {
  RequestVector rv(3);
  rv.add(0, 1);  // no wavelength-1 request anywhere
  HealthMask h = HealthMask::healthy(3);
  h.channels[1] = ChannelHealth::kConverterFaulted;
  const auto red = core::apply_health(rv, {}, h);
  EXPECT_EQ(red.pre_grant_count, 0);
  EXPECT_EQ(red.availability[1], 0);
  EXPECT_EQ(red.requests.count(0), 1);
}

TEST(ApplyHealth, OccupiedConverterFaultedChannelNotPreGranted) {
  RequestVector rv(2);
  rv.add(0, 1);
  HealthMask h = HealthMask::healthy(2);
  h.channels[0] = ChannelHealth::kConverterFaulted;
  const std::vector<std::uint8_t> occupied{0, 1};  // channel 0 already busy
  const auto red = core::apply_health(rv, occupied, h);
  EXPECT_EQ(red.pre_grant_count, 0);
  EXPECT_EQ(red.requests.count(0), 1);
}

// The word fold must reproduce apply_health exactly: same reduced counts,
// availability and pre-grants. One HealthFold is reused across every
// instance and every k, as a port scheduler reuses its scratch.
void expect_fold_matches(const RequestVector& rv,
                         const std::vector<std::uint8_t>& available,
                         const HealthMask& health, core::HealthFold& fold) {
  const std::int32_t k = rv.k();
  const std::size_t nw = core::mask_words(k);
  std::vector<std::uint64_t> avail_words(nw), nonempty(nw);
  core::pack_availability(available, k, avail_words.data());
  core::pack_counts(rv.counts(), k, nonempty.data());
  core::fold_health(rv, avail_words, nonempty, health, fold);

  const auto red = core::apply_health(rv, available, health);
  std::vector<std::uint64_t> want_avail(nw), want_nonempty(nw), want_pre(nw);
  core::pack_availability(red.availability, k, want_avail.data());
  core::pack_counts(red.requests.counts(), k, want_nonempty.data());
  core::pack_availability(red.pre_granted, k, want_pre.data());
  ASSERT_EQ(fold.requests, red.requests);
  ASSERT_EQ(fold.availability, want_avail);
  ASSERT_EQ(fold.nonempty, want_nonempty);
  ASSERT_EQ(fold.pre_granted, want_pre);

  // Pre-grants land on their own wavelength, on top of a kernel result.
  core::ChannelAssignment out(k);
  fold.write_pre_grants(out);
  ASSERT_EQ(out.granted, red.pre_grant_count);
  for (core::Channel u = 0; u < k; ++u) {
    const bool pre = red.pre_granted[static_cast<std::size_t>(u)] != 0;
    ASSERT_EQ(out.source[static_cast<std::size_t>(u)], pre ? u : core::kNone);
  }
}

TEST(HealthFold, MatchesApplyHealth) {
  core::HealthFold fold;
  // Exhaustive for k <= 4: every per-channel health state and the fiber
  // cut, crossed with every availability mask and counts in {0, 1, 2}.
  int instances = 0;
  for (std::int32_t k = 1; k <= 4; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    std::int32_t states = 1;  // 3^k
    for (std::int32_t i = 0; i < k; ++i) states *= 3;
    for (std::int32_t hs = 0; hs < states; ++hs) {
      HealthMask health = HealthMask::healthy(k);
      for (std::int32_t u = 0, code = hs; u < k; ++u, code /= 3) {
        health.channels[static_cast<std::size_t>(u)] =
            static_cast<ChannelHealth>(code % 3);
      }
      for (std::int32_t am = 0; am < (1 << k); ++am) {
        std::vector<std::uint8_t> available(uk);
        for (std::size_t u = 0; u < uk; ++u) {
          available[u] = static_cast<std::uint8_t>((am >> u) & 1);
        }
        for (std::int32_t cs = 0; cs < states; ++cs) {
          RequestVector rv(k);
          for (std::int32_t w = 0, code = cs; w < k; ++w, code /= 3) {
            rv.add(w, code % 3);
          }
          for (const bool cut : {false, true}) {
            health.fiber_faulted = cut;
            expect_fold_matches(rv, available, health, fold);
            if (HasFatalFailure()) return;
            instances += 1;
          }
        }
      }
    }
  }
  EXPECT_EQ(instances,
            2 * (3 * 3 * 2 + 9 * 9 * 4 + 27 * 27 * 8 + 81 * 81 * 16));

  // Random instances up to k = 70, so the fold crosses a word boundary;
  // some with an empty (all-free) availability mask or an empty health
  // vector.
  util::Rng rng(1414);
  for (int it = 0; it < 2000; ++it) {
    const auto k = static_cast<std::int32_t>(1 + rng.uniform_below(70));
    RequestVector rv(k);
    for (core::Wavelength w = 0; w < k; ++w) {
      rv.add(w, static_cast<std::int32_t>(rng.uniform_below(4)));
    }
    std::vector<std::uint8_t> available;
    if (!rng.bernoulli(0.1)) {
      available.resize(static_cast<std::size_t>(k));
      for (auto& a : available) a = rng.bernoulli(0.7) ? 1 : 0;
    }
    HealthMask health;
    health.fiber_faulted = rng.bernoulli(0.05);
    if (!rng.bernoulli(0.1)) {
      health.channels.resize(static_cast<std::size_t>(k));
      for (auto& ch : health.channels) {
        const double u = rng.uniform01();
        ch = u < 0.2   ? ChannelHealth::kConverterFaulted
             : u < 0.4 ? ChannelHealth::kChannelFaulted
                       : ChannelHealth::kHealthy;
      }
    }
    expect_fold_matches(rv, available, health, fold);
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------- degraded-mode optimality

std::int32_t hk_maximum(const ConversionScheme& scheme, const RequestVector& rv,
                        const HealthMask& health) {
  const core::RequestGraph g(scheme, rv, {}, health);
  return static_cast<std::int32_t>(graph::hopcroft_karp(g.to_bipartite()).size());
}

TEST(DegradedOptimality, ConverterFaultHandCase) {
  // k=4, d=2 circular (e=0, f=1). Wavelengths {0,0,1}: healthy FA grants 3.
  // Converter on channel 1 dies: channel 1 now only takes wavelength 1, so
  // a maximum matching pre-grants (w=1 -> u=1) and schedules {0,0} on the
  // survivors {0, 2, 3}; wavelength 0 reaches {0, 1} so only one fits: 2.
  const auto scheme = ConversionScheme::circular(4, 0, 1);
  RequestVector rv(4);
  rv.add(0, 2);
  rv.add(1, 1);
  HealthMask h = HealthMask::healthy(4);
  h.channels[1] = ChannelHealth::kConverterFaulted;
  EXPECT_EQ(hk_maximum(scheme, rv, h), 2);

  core::OutputPortScheduler port(scheme);
  const auto a = port.assign_channels(rv, {}, h);
  EXPECT_EQ(a.granted, 2);
  EXPECT_EQ(a.source[1], 1);  // the pre-granted pair survives arbitration
}

TEST(DegradedOptimality, RandomAgainstOracle) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const auto k = static_cast<std::int32_t>(2 + rng.uniform_below(7));
    const auto d = static_cast<std::int32_t>(1 + rng.uniform_below(
                       static_cast<std::uint64_t>(k)));
    const auto e = static_cast<std::int32_t>(rng.uniform_below(
        static_cast<std::uint64_t>(d)));
    const auto scheme = rng.bernoulli(0.5)
                            ? ConversionScheme::circular(k, e, d - 1 - e)
                            : ConversionScheme::non_circular(k, e, d - 1 - e);
    RequestVector rv(k);
    for (core::Wavelength w = 0; w < k; ++w) {
      rv.add(w, static_cast<std::int32_t>(rng.uniform_below(3)));
    }
    HealthMask h = HealthMask::healthy(k);
    for (auto& ch : h.channels) {
      const double u = rng.uniform01();
      ch = u < 0.2   ? ChannelHealth::kConverterFaulted
           : u < 0.4 ? ChannelHealth::kChannelFaulted
                     : ChannelHealth::kHealthy;
    }
    core::OutputPortScheduler port(scheme);
    const auto a = port.assign_channels(rv, {}, h);
    EXPECT_EQ(a.granted, hk_maximum(scheme, rv, h))
        << "k=" << k << " e=" << e << " f=" << d - 1 - e;
  }
}

TEST(SchedulerHealth, FiberCutRejectsEverythingAsFaulted) {
  core::DistributedScheduler sched(2, ConversionScheme::circular(4, 1, 1));
  std::vector<core::SlotRequest> requests{
      {0, 0, 0, 1, 1}, {0, 7, 0, 2, 1},  // second is malformed (wavelength)
      {1, 1, 1, 3, 1}};
  std::vector<HealthMask> health(2, HealthMask::healthy(4));
  health[0].fiber_faulted = true;
  const auto d = sched.schedule_slot(requests, nullptr, &health);
  // kFaulted outranks field validation: nothing on a dead fiber is inspected.
  EXPECT_EQ(d[0].reason, core::RejectReason::kFaulted);
  EXPECT_EQ(d[1].reason, core::RejectReason::kFaulted);
  EXPECT_TRUE(d[2].granted);
  EXPECT_FALSE(core::is_malformed(core::RejectReason::kFaulted));
}

TEST(SchedulerHealth, WrongShapedHealthVectorRejectsSlot) {
  core::DistributedScheduler sched(3, ConversionScheme::circular(4, 1, 1));
  std::vector<core::SlotRequest> requests{{0, 0, 0, 1, 1}};
  std::vector<HealthMask> health(2, HealthMask::healthy(4));  // need 3
  const auto d = sched.schedule_slot(requests, nullptr, &health);
  EXPECT_EQ(d[0].reason, core::RejectReason::kBadHealthMask);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, ScriptedEventsApplyAtTheirSlot) {
  FaultConfig cfg;
  cfg.script = {FaultEvent{2, FaultKind::kChannel, 1, 3, false},
                FaultEvent{5, FaultKind::kChannel, 1, 3, true}};
  FaultInjector inj(2, 4, cfg, 99);
  for (std::uint64_t slot = 0; slot < 8; ++slot) {
    inj.tick();
    const bool down = slot >= 2 && slot < 5;
    EXPECT_EQ(inj.any_fault(), down) << "slot " << slot;
    EXPECT_EQ(inj.health()[1].channel(3) == ChannelHealth::kChannelFaulted,
              down);
  }
  EXPECT_EQ(inj.failures_injected(), 1u);
  EXPECT_EQ(inj.repairs_applied(), 1u);
}

TEST(FaultInjector, StochasticScheduleReplaysFromSeed) {
  FaultConfig cfg;
  cfg.converters = {20.0, 5.0};
  cfg.channels = {30.0, 8.0};
  cfg.fibers = {200.0, 10.0};
  FaultInjector a(3, 5, cfg, 12345);
  FaultInjector b(3, 5, cfg, 12345);
  for (int slot = 0; slot < 500; ++slot) {
    a.tick();
    b.tick();
    ASSERT_EQ(a.health(), b.health()) << "diverged at slot " << slot;
  }
  EXPECT_EQ(a.failures_injected(), b.failures_injected());
  EXPECT_GT(a.failures_injected(), 0u);  // MTBF 20 over 500 slots must fire
}

TEST(FaultInjector, ScriptDoesNotShiftTheStochasticStream) {
  // The determinism contract: one draw per component per slot, regardless of
  // state — so adding scripted events never moves the stochastic schedule.
  FaultConfig plain;
  plain.channels = {50.0, 5.0};
  FaultConfig scripted = plain;
  scripted.script = {FaultEvent{10, FaultKind::kConverter, 0, 0, false},
                     FaultEvent{20, FaultKind::kConverter, 0, 0, true}};
  FaultInjector a(2, 3, plain, 7);
  FaultInjector b(2, 3, scripted, 7);
  for (int slot = 0; slot < 300; ++slot) {
    a.tick();
    b.tick();
    if (slot >= 30) {  // past the scripted window the masks must re-converge
      ASSERT_EQ(a.health(), b.health()) << "stream shifted by slot " << slot;
    }
  }
}

// ------------------------------------------------------- interconnect paths

sim::InterconnectConfig base_config(std::int32_t n, std::int32_t k) {
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n;
  cfg.scheme = ConversionScheme::circular(k, 1, k >= 3 ? 1 : 0);
  cfg.seed = 11;
  return cfg;
}

TEST(InterconnectFaults, NoDisturbTearsDownOnChannelFault) {
  // d = 1 (no conversion) pins wavelength 0 to channel 0, so the scripted
  // fault is guaranteed to hit the occupied channel.
  auto cfg = base_config(2, 4);
  cfg.scheme = ConversionScheme::circular(4, 0, 0);
  cfg.faults.script = {FaultEvent{1, FaultKind::kChannel, 0, 0, false}};
  sim::Interconnect ic(cfg);
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 5}};
  auto stats = ic.step(arrivals);
  ASSERT_EQ(stats.granted, 1u);
  EXPECT_EQ(ic.busy_output_channels(), 1u);
  // Slot 1: the occupied channel dies; the connection is torn down and its
  // input channel freed.
  stats = ic.step({});
  EXPECT_EQ(stats.dropped_faulted, 1u);
  EXPECT_EQ(ic.busy_output_channels(), 0u);
  const auto busy = ic.input_channel_busy();
  for (const auto bit : busy) EXPECT_EQ(bit, 0);
}

TEST(InterconnectFaults, NoDisturbStraightThroughSurvivesConverterFault) {
  auto cfg = base_config(1, 4);
  cfg.scheme = ConversionScheme::circular(4, 0, 0);  // d = 1: w0 -> channel 0
  cfg.faults.script = {FaultEvent{1, FaultKind::kConverter, 0, 0, false}};
  sim::Interconnect ic(cfg);
  // Wavelength 0 on channel 0: no conversion in flight, so losing the
  // converter does not touch the connection.
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 4}};
  auto stats = ic.step(arrivals);
  ASSERT_EQ(stats.granted, 1u);
  stats = ic.step({});
  EXPECT_EQ(stats.dropped_faulted, 0u);
  EXPECT_EQ(ic.busy_output_channels(), 1u);
}

TEST(InterconnectFaults, NoDisturbConvertingConnectionDiesWithConverter) {
  // k = 2, full range: two wavelength-0 requests fill both channels, so one
  // connection is straight-through on channel 0 and the other converts
  // 0 -> 1 — whichever request landed where. Killing both converters at
  // slot 1 must tear down exactly the converting connection.
  auto cfg = base_config(1, 2);
  cfg.scheme = ConversionScheme::circular(2, 1, 0);
  cfg.faults.script = {FaultEvent{1, FaultKind::kConverter, 0, 0, false},
                       FaultEvent{1, FaultKind::kConverter, 0, 1, false}};
  sim::Interconnect ic(cfg);
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 4}, {0, 0, 0, 2, 4}};
  auto stats = ic.step(arrivals);
  ASSERT_EQ(stats.granted, 2u);
  stats = ic.step({});
  EXPECT_EQ(stats.dropped_faulted, 1u);
  EXPECT_EQ(ic.busy_output_channels(), 1u);
}

TEST(InterconnectFaults, RearrangeRehomesAroundChannelFault) {
  auto cfg = base_config(1, 4);
  cfg.policy = sim::OccupiedPolicy::kRearrange;
  // Wavelength 1 reaches channels {0, 1, 2} (e = f = 1); killing 0 and 1
  // leaves exactly channel 2, so wherever the connection sat, the
  // re-schedule must move it there instead of dropping it.
  cfg.faults.script = {FaultEvent{1, FaultKind::kChannel, 0, 0, false},
                       FaultEvent{1, FaultKind::kChannel, 0, 1, false}};
  sim::Interconnect ic(cfg);
  std::vector<core::SlotRequest> arrivals{{0, 1, 0, 1, 6}};
  auto stats = ic.step(arrivals);
  ASSERT_EQ(stats.granted, 1u);
  stats = ic.step({});
  EXPECT_EQ(stats.dropped_faulted, 0u);
  EXPECT_EQ(ic.busy_output_channels(), 1u);
}

TEST(InterconnectFaults, RearrangeDropsWhenNoSurvivorFits) {
  auto cfg = base_config(1, 2);
  cfg.policy = sim::OccupiedPolicy::kRearrange;
  cfg.faults.script = {FaultEvent{1, FaultKind::kFiber, 0, 0, false}};
  sim::Interconnect ic(cfg);
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 6}};
  auto stats = ic.step(arrivals);
  ASSERT_EQ(stats.granted, 1u);
  stats = ic.step({});
  EXPECT_EQ(stats.dropped_faulted, 1u);
  EXPECT_EQ(ic.busy_output_channels(), 0u);
  const auto busy = ic.input_channel_busy();
  for (const auto bit : busy) EXPECT_EQ(bit, 0);
}

// --------------------------------------------------------------- retry queue

TEST(RetryQueue, DefersAndSucceedsAfterRepair) {
  auto cfg = base_config(1, 4);
  cfg.faults.script = {FaultEvent{0, FaultKind::kFiber, 0, 0, false},
                       FaultEvent{2, FaultKind::kFiber, 0, 0, true}};
  cfg.retry.max_retries = 3;
  cfg.retry.backoff_base = 2;
  sim::Interconnect ic(cfg);
  // Slot 0: fiber down, request deferred (due at slot 2, where the fiber is
  // back up).
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 1}};
  auto s0 = ic.step(arrivals);
  EXPECT_EQ(s0.deferred_faulted, 1u);
  EXPECT_EQ(s0.granted, 0u);
  EXPECT_EQ(s0.rejected, 0u);
  EXPECT_EQ(ic.retry_queue_depth(), 1u);
  auto s1 = ic.step({});
  EXPECT_EQ(s1.retry_attempts, 0u);  // still backing off
  auto s2 = ic.step({});
  EXPECT_EQ(s2.retry_attempts, 1u);
  EXPECT_EQ(s2.retry_successes, 1u);
  EXPECT_EQ(s2.granted, 1u);
  EXPECT_EQ(ic.retry_queue_depth(), 0u);
}

TEST(RetryQueue, BudgetExhaustionDropsAsFaulted) {
  auto cfg = base_config(1, 2);
  cfg.faults.script = {FaultEvent{0, FaultKind::kFiber, 0, 0, false}};
  cfg.retry.max_retries = 1;
  cfg.retry.backoff_base = 1;
  sim::Interconnect ic(cfg);
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 1}};
  auto s0 = ic.step(arrivals);
  EXPECT_EQ(s0.deferred_faulted, 1u);
  // Slot 1: the one retry runs against a still-dead fiber; the budget is
  // spent, so the request finally drops as rejected_faulted.
  auto s1 = ic.step({});
  EXPECT_EQ(s1.retry_attempts, 1u);
  EXPECT_EQ(s1.rejected, 1u);
  EXPECT_EQ(s1.rejected_faulted, 1u);
  EXPECT_EQ(ic.retry_queue_depth(), 0u);
}

TEST(RetryQueue, DisabledRetriesRejectImmediately) {
  auto cfg = base_config(1, 2);
  cfg.faults.script = {FaultEvent{0, FaultKind::kFiber, 0, 0, false}};
  sim::Interconnect ic(cfg);  // retry.max_retries defaults to 0
  std::vector<core::SlotRequest> arrivals{{0, 0, 0, 1, 1}};
  const auto s0 = ic.step(arrivals);
  EXPECT_EQ(s0.rejected, 1u);
  EXPECT_EQ(s0.rejected_faulted, 1u);
  EXPECT_EQ(s0.deferred_faulted, 0u);
  EXPECT_EQ(ic.retry_queue_depth(), 0u);
}

TEST(RetryQueue, CapacityBoundOverflowsToRejection) {
  auto cfg = base_config(1, 4);
  cfg.faults.script = {FaultEvent{0, FaultKind::kFiber, 0, 0, false}};
  cfg.retry.max_retries = 5;
  cfg.retry.queue_capacity = 2;
  sim::Interconnect ic(cfg);
  std::vector<core::SlotRequest> arrivals{
      {0, 0, 0, 1, 1}, {0, 1, 0, 2, 1}, {0, 2, 0, 3, 1}};
  const auto s0 = ic.step(arrivals);
  EXPECT_EQ(s0.deferred_faulted, 2u);
  // The request the full queue could not take is a deliberate overload shed
  // (the hardware fault is real, but the drop happened at the cap), counted
  // in the shed_overload subset rather than rejected_faulted.
  EXPECT_EQ(s0.rejected, 1u);
  EXPECT_EQ(s0.rejected_faulted, 0u);
  EXPECT_EQ(s0.shed_overload, 1u);
  EXPECT_EQ(ic.retry_queue_depth(), 2u);
  sim::MetricsCollector metrics(1, 4);
  metrics.record_slot(s0);  // conservation law balances at the cap
  EXPECT_EQ(metrics.shed_overload(), 1u);
}

// -------------------------------------------------------------- metrics law

TEST(MetricsFaults, ConservationLawEnforced) {
  sim::MetricsCollector m(1, 2);
  sim::SlotStats bad;
  bad.arrivals = 2;
  bad.granted = 1;  // 1 request vanished: neither rejected nor deferred
  EXPECT_THROW(m.record_slot(bad), std::logic_error);

  sim::SlotStats good;
  good.arrivals = 3;
  good.retry_attempts = 1;
  good.granted = 2;
  good.retry_successes = 1;
  good.rejected = 1;
  good.rejected_faulted = 1;
  good.deferred_faulted = 1;
  m.record_slot(good);
  EXPECT_EQ(m.rejected_faulted(), 1u);
  EXPECT_EQ(m.deferred_faulted(), 1u);
  EXPECT_EQ(m.retry_attempts(), 1u);
  EXPECT_EQ(m.retry_successes(), 1u);
}

TEST(MetricsFaults, MergeAddsFaultCounters) {
  sim::MetricsCollector a(1, 2);
  sim::MetricsCollector b(1, 2);
  sim::SlotStats s;
  s.arrivals = 1;
  s.rejected = 1;
  s.rejected_faulted = 1;
  s.dropped_faulted = 2;
  a.record_slot(s);
  b.record_slot(s);
  a.merge(b);
  EXPECT_EQ(a.rejected_faulted(), 2u);
  EXPECT_EQ(a.dropped_faulted(), 4u);
}

// --------------------------------------------------- end-to-end determinism

TEST(SimulationFaults, EnablingFaultsDoesNotPerturbArrivals) {
  // Single-slot holding keeps the traffic feedback loop (input_channel_busy)
  // identically empty, so the arrival count for a seed must be bit-for-bit
  // the same whether faults are on or off: the injector lives on a derived
  // RNG stream that traffic never sees.
  sim::SimulationConfig cfg;
  cfg.interconnect.n_fibers = 4;
  cfg.interconnect.scheme = ConversionScheme::circular(4, 1, 1);
  cfg.traffic.load = 0.6;
  cfg.slots = 2000;
  cfg.warmup = 100;
  cfg.seed = 77;
  const auto healthy = sim::run_simulation(cfg);

  cfg.interconnect.faults.channels = {40.0, 10.0};
  cfg.interconnect.faults.fibers = {500.0, 25.0};
  const auto faulted = sim::run_simulation(cfg);

  EXPECT_EQ(healthy.arrivals, faulted.arrivals);
  EXPECT_GT(faulted.fault_failures, 0u);
  EXPECT_EQ(healthy.fault_failures, 0u);
  // Degradation shows up as extra loss, never as vanished requests.
  EXPECT_GE(faulted.losses, healthy.losses);
}

TEST(SimulationFaults, FaultedRunReplaysFromSeed) {
  sim::SimulationConfig cfg;
  cfg.interconnect.n_fibers = 3;
  cfg.interconnect.scheme = ConversionScheme::circular(4, 1, 1);
  cfg.interconnect.faults.converters = {30.0, 6.0};
  cfg.interconnect.faults.channels = {60.0, 12.0};
  cfg.interconnect.retry.max_retries = 2;
  cfg.traffic.load = 0.5;
  cfg.slots = 1500;
  cfg.warmup = 100;
  cfg.seed = 31;
  const auto a = sim::run_simulation(cfg);
  const auto b = sim::run_simulation(cfg);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_EQ(a.rejected_faulted, b.rejected_faulted);
  EXPECT_EQ(a.dropped_faulted, b.dropped_faulted);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.retry_successes, b.retry_successes);
  EXPECT_EQ(a.fault_failures, b.fault_failures);
  EXPECT_EQ(a.fault_repairs, b.fault_repairs);
}

TEST(ChainFaults, FaultedChainRunsAndReplays) {
  sim::ChainConfig cfg;
  cfg.hops = 3;
  cfg.n_fibers = 4;
  cfg.scheme = ConversionScheme::circular(4, 1, 1);
  cfg.load = 0.4;
  cfg.slots = 1200;
  cfg.warmup = 100;
  cfg.seed = 5;
  const auto healthy = sim::run_chain_simulation(cfg);
  EXPECT_EQ(healthy.dropped_faulted, 0u);

  cfg.faults.fibers = {300.0, 20.0};
  const auto a = sim::run_chain_simulation(cfg);
  const auto b = sim::run_chain_simulation(cfg);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_faulted, b.dropped_faulted);
  // Same seed, same traffic: the faulted chain injects identically but
  // delivers no more than the healthy one.
  EXPECT_EQ(a.injected, healthy.injected);
  EXPECT_LE(a.delivered, healthy.delivered);
  EXPECT_GT(a.dropped_faulted, 0u);
}

// ------------------------------------------------------------ golden pins
//
// Decision pins of the fault plane, recorded from the injector that drew one
// uniform01() per component and compared it as a double against 1/MTBF or
// 1/MTTR, and rebuilt all N*k health entries after every tick. Any change to
// which draw feeds which component, to a threshold's rounding, to the order
// of scripted and stochastic events or to a health entry moves a pin.

// All three stochastic classes plus a script that overlaps them: a channel
// and its converter failed together, a fiber cut and splice, a repeated
// failure that must be a no-op, and a repair of a component already up.
FaultConfig golden_fault_config() {
  FaultConfig cfg;
  cfg.converters = {150.0, 12.0};
  cfg.channels = {250.0, 9.0};
  cfg.fibers = {600.0, 7.0};
  cfg.script = {FaultEvent{5, FaultKind::kChannel, 1, 2, false},
                FaultEvent{5, FaultKind::kConverter, 1, 2, false},
                FaultEvent{40, FaultKind::kFiber, 3, 0, false},
                FaultEvent{90, FaultKind::kFiber, 3, 0, true},
                FaultEvent{120, FaultKind::kChannel, 0, 0, false},
                FaultEvent{121, FaultKind::kChannel, 0, 0, false},
                FaultEvent{300, FaultKind::kChannel, 1, 2, true},
                FaultEvent{300, FaultKind::kConverter, 1, 2, true},
                FaultEvent{800, FaultKind::kConverter, 6, 5, true},
                FaultEvent{1500, FaultKind::kConverter, 7, 5, false},
                FaultEvent{1700, FaultKind::kConverter, 7, 5, true}};
  return cfg;
}

constexpr std::int32_t kGoldenFibers = 8;
constexpr std::int32_t kGoldenK = 6;
constexpr std::uint64_t kGoldenFaultSeed = 0xFA17;
constexpr int kGoldenFaultSlots = 2000;

// One slot's observable fault state: every health entry, the counters and
// the any_fault() summary.
void hash_fault_state(test::Fnv1a& h, const FaultInjector& inj) {
  for (const HealthMask& mask : inj.health()) {
    h.add(static_cast<std::uint8_t>(mask.fiber_faulted ? 1 : 0));
    h.add(static_cast<std::uint64_t>(mask.channels.size()));
    for (const ChannelHealth c : mask.channels) {
      h.add(static_cast<std::uint8_t>(c));
    }
  }
  h.add(inj.failures_injected());
  h.add(inj.repairs_applied());
  h.add(inj.down_components());
  h.add(static_cast<std::uint8_t>(inj.any_fault() ? 1 : 0));
}

TEST(FaultGolden, HealthFailuresAndRepairsPerSlot) {
  FaultInjector inj(kGoldenFibers, kGoldenK, golden_fault_config(),
                    kGoldenFaultSeed);
  test::Fnv1a h;
  for (int slot = 0; slot < kGoldenFaultSlots; ++slot) {
    inj.tick();
    hash_fault_state(h, inj);
  }
  EXPECT_EQ(inj.failures_injected(), 1004u);
  EXPECT_EQ(inj.repairs_applied(), 999u);
  EXPECT_EQ(h.value(), 0xe830ffba9a2081e6ULL) << "0x" << std::hex << h.value();
}

// A checkpoint taken mid-run restores into an injector whose own state has
// drifted (other seed, other slot count, other faults down) and continues
// with the same health and counters, slot for slot.
TEST(FaultGolden, MidRunSaveRestoreContinuesIdentically) {
  constexpr int kSaveAt = kGoldenFaultSlots / 2;
  FaultInjector a(kGoldenFibers, kGoldenK, golden_fault_config(),
                  kGoldenFaultSeed);
  for (int slot = 0; slot < kSaveAt; ++slot) a.tick();
  util::SnapshotWriter w;
  a.save_state(w);

  FaultInjector b(kGoldenFibers, kGoldenK, golden_fault_config(), 99);
  for (int slot = 0; slot < 37; ++slot) b.tick();
  auto r = util::SnapshotReader::from_payload(w.payload());
  b.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(a.slots(), b.slots());
  ASSERT_EQ(a.health(), b.health());

  test::Fnv1a ha, hb;
  for (int slot = kSaveAt; slot < kGoldenFaultSlots; ++slot) {
    a.tick();
    b.tick();
    ASSERT_EQ(a.health(), b.health()) << "diverged at slot " << slot;
    hash_fault_state(ha, a);
    hash_fault_state(hb, b);
  }
  EXPECT_EQ(ha.value(), hb.value());
  EXPECT_EQ(hb.value(), 0x403e195af29b880fULL)
      << "0x" << std::hex << hb.value();
}

// The fault plane seen through a live fabric: multi-slot holds keep
// connections up across failures, so kNoDisturb teardown runs on most
// slots. Pins the final state digest and the connections torn down.
struct FaultedFabricGolden {
  std::uint64_t digest = 0;
  std::uint64_t dropped_faulted = 0;
  std::uint64_t granted = 0;
};

FaultedFabricGolden run_faulted_fabric(sim::OccupiedPolicy policy) {
  sim::InterconnectConfig cfg;
  cfg.n_fibers = 12;
  cfg.scheme = ConversionScheme::circular(8, 1, 1);
  cfg.policy = policy;
  cfg.seed = 2024;
  cfg.faults.converters = {120.0, 10.0};
  cfg.faults.channels = {200.0, 8.0};
  cfg.faults.fibers = {700.0, 6.0};
  cfg.faults.script = {FaultEvent{50, FaultKind::kFiber, 2, 0, false},
                       FaultEvent{80, FaultKind::kFiber, 2, 0, true},
                       FaultEvent{200, FaultKind::kChannel, 5, 3, false},
                       FaultEvent{260, FaultKind::kChannel, 5, 3, true}};
  cfg.retry.max_retries = 2;
  sim::Interconnect ic(cfg);
  sim::TrafficConfig traffic;
  traffic.load = 0.8;
  traffic.destinations = sim::DestinationPattern::kHotspot;
  traffic.hotspot_alpha = 0.7;
  traffic.holding = sim::HoldingTime::kGeometric;
  traffic.mean_holding = 5.0;
  sim::TrafficGenerator gen(cfg.n_fibers, 8, traffic, 4048);
  std::vector<std::uint8_t> busy;
  std::vector<core::SlotRequest> arrivals;
  FaultedFabricGolden out;
  for (int slot = 0; slot < 1500; ++slot) {
    ic.input_channel_busy_into(busy);
    gen.next_slot_into(busy, arrivals);
    const sim::SlotStats stats = ic.step(arrivals);
    out.dropped_faulted += stats.dropped_faulted;
    out.granted += stats.granted;
  }
  out.digest = sim::state_digest(ic);
  return out;
}

TEST(FaultGolden, FaultedInterconnectDigestAndTeardowns) {
  const auto no_disturb = run_faulted_fabric(sim::OccupiedPolicy::kNoDisturb);
  EXPECT_EQ(no_disturb.digest, 0x25298a5eaca166a1ULL)
      << "0x" << std::hex << no_disturb.digest;
  EXPECT_EQ(no_disturb.dropped_faulted, 970u);
  EXPECT_EQ(no_disturb.granted, 21998u);
  const auto rearrange = run_faulted_fabric(sim::OccupiedPolicy::kRearrange);
  EXPECT_EQ(rearrange.digest, 0x5cfc0c84c598b8e0ULL)
      << "0x" << std::hex << rearrange.digest;
  EXPECT_EQ(rearrange.dropped_faulted, 322u);
  EXPECT_EQ(rearrange.granted, 21866u);
}

}  // namespace
}  // namespace wdm
