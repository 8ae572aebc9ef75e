// End-to-end simulation driver: determinism, monotonicity in load, and the
// paper's qualitative claims (conversion helps; d small ≈ full range).
#include <gtest/gtest.h>

#include <thread>

#include "sim/simulation.hpp"

namespace wdm {
namespace {

using core::ConversionScheme;
using sim::SimulationConfig;

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.interconnect.n_fibers = 4;
  cfg.interconnect.scheme = ConversionScheme::circular(8, 1, 1);
  cfg.traffic.load = 0.5;
  cfg.slots = 2000;
  cfg.warmup = 200;
  cfg.seed = 7;
  return cfg;
}

TEST(Simulation, DeterministicForSeed) {
  const auto cfg = base_config();
  const auto a = sim::run_simulation(cfg);
  const auto b = sim::run_simulation(cfg);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(Simulation, ReportAccountingConsistent) {
  const auto r = sim::run_simulation(base_config());
  EXPECT_EQ(r.slots, 2000u);
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_LE(r.losses, r.arrivals);
  EXPECT_NEAR(r.loss_probability,
              static_cast<double>(r.losses) / static_cast<double>(r.arrivals),
              1e-12);
  EXPECT_GE(r.loss_wilson_high, r.loss_probability);
  EXPECT_LE(r.loss_wilson_low, r.loss_probability);
  EXPECT_GT(r.throughput_per_channel, 0.0);
  EXPECT_LE(r.throughput_per_channel, 1.0);
  EXPECT_GT(r.fiber_fairness, 0.9);  // uniform traffic: near-perfect fairness
  EXPECT_EQ(r.preemptions, 0u);
}

TEST(Simulation, LossIncreasesWithLoad) {
  auto cfg = base_config();
  cfg.traffic.load = 0.3;
  const auto light = sim::run_simulation(cfg);
  cfg.traffic.load = 0.9;
  const auto heavy = sim::run_simulation(cfg);
  EXPECT_LT(light.loss_probability, heavy.loss_probability);
  EXPECT_LT(light.utilization, heavy.utilization);
}

TEST(Simulation, ConversionReducesLoss) {
  // The paper's premise: wavelength conversion resolves output contention.
  auto cfg = base_config();
  cfg.traffic.load = 0.8;
  cfg.interconnect.scheme = ConversionScheme::circular(8, 0, 0);  // d = 1
  const auto none = sim::run_simulation(cfg);
  cfg.interconnect.scheme = ConversionScheme::circular(8, 1, 1);  // d = 3
  const auto limited = sim::run_simulation(cfg);
  cfg.interconnect.scheme = ConversionScheme::full_range(8);      // d = k
  const auto full = sim::run_simulation(cfg);

  EXPECT_GT(none.loss_probability, limited.loss_probability);
  EXPECT_GE(limited.loss_probability, full.loss_probability);
  // [11][13]: small d already gets close to full range — within a few
  // percentage points of loss at this scale.
  EXPECT_LT(limited.loss_probability - full.loss_probability, 0.05);
}

TEST(Simulation, ThreadedRunProducesSaneResults) {
  // Two simulations on two threads at once (one fabric per thread, as fleet
  // shards run) must each be sane and agree with each other.
  auto cfg = base_config();
  cfg.slots = 500;
  sim::SimulationReport other;
  std::jthread worker([&] { other = sim::run_simulation(cfg); });
  const auto r = sim::run_simulation(cfg);
  worker.join();
  EXPECT_EQ(r.slots, 500u);
  EXPECT_LE(r.losses, r.arrivals);
  EXPECT_EQ(other.arrivals, r.arrivals);
  EXPECT_EQ(other.losses, r.losses);
}

TEST(Simulation, MultiSlotHoldingRaisesUtilization) {
  auto cfg = base_config();
  cfg.traffic.load = 0.3;
  cfg.interconnect.policy = sim::OccupiedPolicy::kNoDisturb;
  const auto single = sim::run_simulation(cfg);
  cfg.traffic.holding = sim::HoldingTime::kGeometric;
  cfg.traffic.mean_holding = 8.0;
  const auto held = sim::run_simulation(cfg);
  // Sources emit less often (busy channels) but connections linger; loss
  // goes up because the fabric stays occupied.
  EXPECT_GT(held.utilization, 0.0);
  EXPECT_GT(held.loss_probability, single.loss_probability);
}

TEST(Simulation, RearrangeNeverLosesMoreThanNoDisturb) {
  auto cfg = base_config();
  cfg.traffic.load = 0.7;
  cfg.traffic.holding = sim::HoldingTime::kGeometric;
  cfg.traffic.mean_holding = 4.0;
  cfg.slots = 3000;
  cfg.interconnect.policy = sim::OccupiedPolicy::kNoDisturb;
  const auto nd = sim::run_simulation(cfg);
  cfg.interconnect.policy = sim::OccupiedPolicy::kRearrange;
  const auto ra = sim::run_simulation(cfg);
  EXPECT_EQ(ra.preemptions, 0u);
  EXPECT_LE(ra.loss_probability, nd.loss_probability + 0.01);
}

TEST(Simulation, ZeroSlotsRejected) {
  auto cfg = base_config();
  cfg.slots = 0;
  EXPECT_THROW(sim::run_simulation(cfg), std::logic_error);
}

}  // namespace
}  // namespace wdm
