// Enforces the zero-allocation contract of the slot pipeline: once the
// scratch arenas are warm, the scheduler + availability-update path performs
// no heap allocation at all, and a full Interconnect::step allocates nothing
// either — the SlotStats per-class QoS counters live in fixed-capacity
// inline arrays (util::SmallVec), so returning the stats by value is free.
//
// This test replaces the global operator new/delete with counting versions,
// so it lives in its own binary (tests/CMakeLists.txt) — instrumenting the
// main wdm_tests binary would tax every other test for no benefit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/availability.hpp"
#include "core/distributed.hpp"
#include "core/health.hpp"
#include "obs/metrics_server.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "sim/fleet.hpp"
#include "sim/obs_export.hpp"
#include "sim/interconnect.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wdm {
namespace {

std::vector<std::vector<core::SlotRequest>> make_slots(std::int32_t n_fibers,
                                                       std::int32_t k,
                                                       std::size_t n_slots,
                                                       double load) {
  util::Rng rng(42);
  std::vector<std::vector<core::SlotRequest>> slots(n_slots);
  std::uint64_t id = 0;
  for (auto& slot : slots) {
    for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
      for (core::Wavelength w = 0; w < k; ++w) {
        if (!rng.bernoulli(load)) continue;
        slot.push_back(core::SlotRequest{
            fib, w,
            static_cast<std::int32_t>(
                rng.uniform_below(static_cast<std::uint64_t>(n_fibers))),
            id++, 1 + static_cast<std::int32_t>(rng.uniform_below(3)), 0});
      }
    }
  }
  return slots;
}

// The debug builds cross-check the incremental availability plane against a
// from-scratch rebuild inside Interconnect::step, and WDM_DCHECKs in the BFA
// kernel recompute reduced adjacencies — both allocate. The contract holds
// for optimized builds, which is what the benchmarks and CI smoke job run.
#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

TEST(ZeroAlloc, SchedulerAndAvailabilityPathIsAllocationFreeWhenWarm) {
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  const std::int32_t n = 16;
  const std::int32_t k = 8;
  const auto slots = make_slots(n, k, 64, 0.7);
  for (const bool circular : {true, false}) {
    const auto scheme = circular ? core::ConversionScheme::circular(k, 1, 1)
                                 : core::ConversionScheme::non_circular(k, 1, 1);
    // kRandom arbitration: the RNG-consuming path must be allocation-free too.
    core::DistributedScheduler sched(n, scheme, core::Algorithm::kAuto,
                                     core::Arbitration::kRandom, 5);
    std::vector<std::uint8_t> plane(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(k), 1);
    const core::AvailabilityView view(plane.data(), n, k);
    std::vector<core::PortDecision> decisions;
    decisions.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));

    const auto sweep = [&] {
      for (const auto& slot : slots) {
        decisions.resize(slot.size());
        sched.schedule_slot_into(slot, view, nullptr, nullptr, decisions);
        // Plane updates in both directions, as the interconnect would do.
        for (std::size_t i = 0; i < slot.size(); ++i) {
          if (!decisions[i].granted) continue;
          plane[static_cast<std::size_t>(slot[i].output_fiber) *
                    static_cast<std::size_t>(k) +
                static_cast<std::size_t>(decisions[i].channel)] = 0;
        }
        for (std::size_t i = 0; i < slot.size(); ++i) {
          if (!decisions[i].granted) continue;
          plane[static_cast<std::size_t>(slot[i].output_fiber) *
                    static_cast<std::size_t>(k) +
                static_cast<std::size_t>(decisions[i].channel)] = 1;
        }
      }
    };

    sweep();  // warm-up: every scratch arena reaches its high-water capacity
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    sweep();
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << (circular ? "circular" : "non-circular")
        << ": the warm scheduler + availability path must not allocate";
  }
}

TEST(ZeroAlloc, FaultedSchedulerPathIsAllocationFreeWhenWarm) {
  // Degraded fibers fold their faults into the availability words and run
  // the same word kernel as healthy ones, so a warm slot with converter
  // faults, channel faults and a cut fiber allocates nothing either.
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  const std::int32_t n = 16;
  const std::int32_t k = 8;
  const auto slots = make_slots(n, k, 64, 0.7);
  std::vector<core::HealthMask> health(static_cast<std::size_t>(n),
                                       core::HealthMask::healthy(k));
  util::Rng rng(9);
  for (auto& h : health) {
    for (auto& ch : h.channels) {
      const double u = rng.uniform01();
      ch = u < 0.2   ? core::ChannelHealth::kConverterFaulted
           : u < 0.3 ? core::ChannelHealth::kChannelFaulted
                     : core::ChannelHealth::kHealthy;
    }
  }
  health[3].fiber_faulted = true;
  health[5] = core::HealthMask::healthy(k);
  const std::pair<const char*, core::ConversionScheme> schemes[] = {
      {"exact BFA", core::ConversionScheme::circular(k, 1, 1)},
      {"First Available", core::ConversionScheme::non_circular(k, 1, 1)},
      {"full-range", core::ConversionScheme::circular(k, 3, 4)}};
  for (const auto& [name, scheme] : schemes) {
    core::DistributedScheduler sched(n, scheme, core::Algorithm::kAuto,
                                     core::Arbitration::kRandom, 5);
    std::vector<std::uint8_t> plane(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(k), 1);
    for (std::size_t i = 0; i < plane.size(); i += 3) plane[i] = 0;
    const core::AvailabilityView view(plane.data(), n, k);
    std::vector<core::PortDecision> decisions;
    decisions.reserve(static_cast<std::size_t>(n) *
                      static_cast<std::size_t>(k));
    std::uint64_t granted = 0;
    const auto sweep = [&] {
      for (const auto& slot : slots) {
        decisions.resize(slot.size());
        sched.schedule_slot_into(slot, view, &health, nullptr, decisions);
        for (const auto& d : decisions) granted += d.granted ? 1 : 0;
      }
    };

    sweep();  // warm-up: every port's fold scratch reaches its size
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    sweep();
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << name << ": the warm faulted scheduler path must not allocate";
    EXPECT_GT(granted, 0u) << name;
  }
}

TEST(ZeroAlloc, InterconnectStepIsAllocationFreeWhenWarm) {
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  const std::int32_t n = 16;
  const std::int32_t k = 8;
  const auto slots = make_slots(n, k, 64, 0.7);
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n;
  cfg.scheme = core::ConversionScheme::circular(k, 1, 1);
  cfg.seed = 5;
  sim::Interconnect ic(cfg);

  std::uint64_t sink = 0;
  for (const auto& slot : slots) sink += ic.step(slot).granted;  // warm-up

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (const auto& slot : slots) sink += ic.step(slot).granted;
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  // Zero per slot: SlotStats.arrivals_per_class and .granted_per_class are
  // inline SmallVecs, and the pipeline itself (partition, schedule, occupy,
  // age) contributes nothing once warm.
  EXPECT_EQ(after - before, 0u) << "sink " << sink;
}

TEST(ZeroAlloc, WarmFourShardFleetStepIsAllocationFree) {
  // The fleet-level contract: once every shard's arenas and scratch buffers
  // are warm, a whole-fleet step — traffic generation, scheduling, plane
  // updates, metrics, the slot barrier, and the SlotStats merge — performs
  // zero heap allocations on any thread. The counter is global, so the shard
  // driver threads are counted too.
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  sim::FleetConfig cfg;
  cfg.shards = 4;
  cfg.seed = 11;
  cfg.interconnect.n_fibers = 16;
  cfg.interconnect.scheme = core::ConversionScheme::circular(8, 1, 1);
  cfg.traffic.load = 0.7;
  cfg.traffic.holding = sim::HoldingTime::kGeometric;
  cfg.traffic.mean_holding = 2.0;
  sim::Fleet fleet(cfg);

  fleet.run(64);  // warm-up: arrival buffers and arenas reach high water

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) fleet.step();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "the warm multi-shard step path must not allocate";
  EXPECT_EQ(fleet.current_slot(), 96u);
  EXPECT_GT(fleet.total_granted(), 0u);
}

TEST(ZeroAlloc, WarmFleetStepIsAllocationFreeWithMetricsServerLive) {
  // The observability plane's enrollment cost is paid at publish time, not
  // on the slot path: with a MetricsServer live (accept thread parked in
  // accept()) and a snapshot already published, the warm fleet step
  // allocates exactly as much as it would without the server — nothing.
  // Snapshots are published before and after the measured window, the way
  // examples/simulate.cpp does between --scrape-every chunks; the global
  // counter would also see any scrape served mid-window, so none happen.
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  sim::FleetConfig cfg;
  cfg.shards = 2;
  cfg.seed = 11;
  cfg.interconnect.n_fibers = 16;
  cfg.interconnect.scheme = core::ConversionScheme::circular(8, 1, 1);
  cfg.traffic.load = 0.7;
  cfg.traffic.holding = sim::HoldingTime::kGeometric;
  cfg.traffic.mean_holding = 2.0;
  sim::Fleet fleet(cfg);

  obs::MetricsServer server;
  if (!server.start(0)) {
    GTEST_SKIP() << "metrics server unavailable: " << server.last_error();
  }

  fleet.run(64);  // warm-up
  {
    obs::Registry registry;
    sim::register_fleet_metrics(registry, fleet);
    server.publish(registry);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) fleet.step();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a live metrics server must not tax the warm slot path";

  obs::Registry registry;
  sim::register_fleet_metrics(registry, fleet);
  server.publish(registry);
  server.stop();
  EXPECT_EQ(fleet.current_slot(), 96u);
}

TEST(ZeroAlloc, SchedulerPathStaysAllocationFreeWithTracingOn) {
  // The telemetry warm path is part of the contract: the trace ring, stage
  // histograms, and per-fiber staging array are all preallocated, so a
  // fully-traced steady state allocates exactly as much as an untraced one.
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  const std::int32_t n = 16;
  const std::int32_t k = 8;
  const auto slots = make_slots(n, k, 64, 0.7);
  const auto scheme = core::ConversionScheme::circular(k, 1, 1);
  core::DistributedScheduler sched(n, scheme, core::Algorithm::kAuto,
                                   core::Arbitration::kRandom, 5);
  obs::TraceRecorder recorder(obs::TraceDetail::kFull);
  sched.set_telemetry(&recorder);
  std::vector<std::uint8_t> plane(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k), 1);
  const core::AvailabilityView view(plane.data(), n, k);
  std::vector<core::PortDecision> decisions;
  decisions.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));

  const auto sweep = [&] {
    for (const auto& slot : slots) {
      decisions.resize(slot.size());
      sched.schedule_slot_into(slot, view, nullptr, nullptr, decisions);
    }
  };

  sweep();  // warm-up: ring, histograms, and fiber staging reach capacity
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  sweep();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "the warm scheduler path must not allocate with tracing on";
  EXPECT_GT(recorder.recorded(), 0u) << "tracing must actually be live";
}

TEST(ZeroAlloc, InterconnectStepWithFullTracingIsAllocationFree) {
  if (!kOptimizedBuild) GTEST_SKIP() << "debug cross-checks allocate";
  const std::int32_t n = 16;
  const std::int32_t k = 8;
  const auto slots = make_slots(n, k, 64, 0.7);
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n;
  cfg.scheme = core::ConversionScheme::circular(k, 1, 1);
  cfg.seed = 5;
  sim::Interconnect ic(cfg);
  obs::TraceRecorder recorder(obs::TraceDetail::kFull);
  ic.set_telemetry(&recorder);

  std::uint64_t sink = 0;
  for (const auto& slot : slots) sink += ic.step(slot).granted;  // warm-up

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (const auto& slot : slots) sink += ic.step(slot).granted;
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  // Same bound as the untraced pipeline: telemetry adds nothing per slot.
  EXPECT_EQ(after - before, 0u) << "sink " << sink;
  EXPECT_GT(recorder.recorded(), 0u) << "tracing must actually be live";
}

}  // namespace
}  // namespace wdm
