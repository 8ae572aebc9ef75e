// The zero-allocation slot pipeline must be a pure performance change: the
// flat-CSR / reusable-scratch fast path (schedule_slot_into, schedule_into)
// must produce decision-for-decision identical results to the original
// nested-vector path, and warm scratch must behave exactly like a cold call.
// A fixed-seed digest pins the whole simulation pipeline end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/availability.hpp"
#include "core/distributed.hpp"
#include "core/scheduler.hpp"
#include "sim/interconnect.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace wdm {
namespace {

using core::PortDecision;
using core::SlotRequest;

bool same_decision(const PortDecision& a, const PortDecision& b) {
  return a.granted == b.granted && a.channel == b.channel &&
         a.reason == b.reason;
}

/// Random slot traffic with a sprinkle of malformed requests (bad output
/// fiber, bad wavelength) so the rejection paths are exercised too.
std::vector<SlotRequest> random_slot(util::Rng& rng, std::int32_t n,
                                     std::int32_t k, std::size_t count) {
  std::vector<SlotRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SlotRequest r;
    r.input_fiber = static_cast<std::int32_t>(rng.uniform_below(
        static_cast<std::uint64_t>(n)));
    r.wavelength = static_cast<core::Wavelength>(rng.uniform_below(
        static_cast<std::uint64_t>(k)));
    r.output_fiber = static_cast<std::int32_t>(rng.uniform_below(
        static_cast<std::uint64_t>(n)));
    r.id = i;
    r.duration = 1 + static_cast<std::int32_t>(rng.uniform_below(3));
    if (rng.uniform_below(40) == 0) r.output_fiber = n + 7;  // invalid
    if (rng.uniform_below(40) == 0) r.wavelength = -1;       // invalid
    out.push_back(r);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> random_masks(util::Rng& rng,
                                                    std::int32_t n,
                                                    std::int32_t k) {
  std::vector<std::vector<std::uint8_t>> masks(
      static_cast<std::size_t>(n),
      std::vector<std::uint8_t>(static_cast<std::size_t>(k), 1));
  for (auto& mask : masks) {
    for (auto& m : mask) m = rng.uniform_below(4) == 0 ? 0 : 1;
  }
  return masks;
}

std::vector<std::uint8_t> flatten(
    const std::vector<std::vector<std::uint8_t>>& masks) {
  std::vector<std::uint8_t> flat;
  for (const auto& mask : masks) {
    flat.insert(flat.end(), mask.begin(), mask.end());
  }
  return flat;
}

class SlotPipelineEquality
    : public ::testing::TestWithParam<core::Arbitration> {};

// The flat-view fast path and the legacy nested-vector path must agree on
// every decision, slot after slot — including the RNG-consuming arbitration
// modes, whose stream would drift forever after a single divergence.
TEST_P(SlotPipelineEquality, FlatViewMatchesNestedVectorPath) {
  const std::int32_t n = 6;
  for (const auto& scheme : {core::ConversionScheme::circular(8, 1, 1),
                             core::ConversionScheme::non_circular(8, 2, 1)}) {
    core::DistributedScheduler legacy(n, scheme, core::Algorithm::kAuto,
                                      GetParam(), 42);
    core::DistributedScheduler fast(n, scheme, core::Algorithm::kAuto,
                                    GetParam(), 42);
    util::Rng rng(7);
    std::vector<PortDecision> fast_decisions;
    for (int slot = 0; slot < 120; ++slot) {
      const auto requests = random_slot(rng, n, scheme.k(), 40);
      const auto masks = random_masks(rng, n, scheme.k());
      const auto flat = flatten(masks);
      const auto expected = legacy.schedule_slot(requests, &masks);
      fast_decisions.resize(requests.size());
      fast.schedule_slot_into(
          requests,
          core::AvailabilityView(flat.data(), n, scheme.k()), nullptr,
          nullptr, fast_decisions);
      ASSERT_EQ(expected.size(), fast_decisions.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(same_decision(expected[i], fast_decisions[i]))
            << "slot " << slot << " request " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllArbitrations, SlotPipelineEquality,
                         ::testing::Values(core::Arbitration::kFifo,
                                           core::Arbitration::kRoundRobin,
                                           core::Arbitration::kRandom));

// A port scheduler whose scratch arenas are warm from hundreds of prior
// slots must decide exactly like the allocating wrapper on a twin instance.
TEST(SlotPipeline, WarmScratchMatchesColdCall) {
  const auto scheme = core::ConversionScheme::circular(8, 1, 1);
  core::OutputPortScheduler a(scheme, core::Algorithm::kAuto,
                              core::Arbitration::kRandom, 99);
  core::OutputPortScheduler b(scheme, core::Algorithm::kAuto,
                              core::Arbitration::kRandom, 99);
  util::Rng rng(3);
  std::vector<PortDecision> warm;
  for (int slot = 0; slot < 300; ++slot) {
    std::vector<core::Request> requests;
    const std::size_t count = rng.uniform_below(12);
    for (std::size_t i = 0; i < count; ++i) {
      requests.push_back(core::Request{
          static_cast<std::int32_t>(rng.uniform_below(4)),
          static_cast<core::Wavelength>(rng.uniform_below(8)), i, 1});
    }
    std::vector<std::uint8_t> mask(8, 1);
    for (auto& m : mask) m = rng.uniform_below(3) == 0 ? 0 : 1;
    const auto cold = a.schedule(requests, mask);
    warm.resize(requests.size());
    b.schedule_into(requests, mask, nullptr, warm);
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
      ASSERT_TRUE(same_decision(cold[i], warm[i])) << "slot " << slot;
    }
  }
}

// A wrong-shaped flat view must reject every request, like a wrong-sized
// nested availability vector does.
TEST(SlotPipeline, MisshapenViewRejectsAllRequests) {
  const auto scheme = core::ConversionScheme::circular(8, 1, 1);
  core::DistributedScheduler sched(4, scheme);
  std::vector<std::uint8_t> plane(3 * 8, 1);  // 3 fibers, scheduler has 4
  const std::vector<SlotRequest> requests{{0, 1, 2, 1, 1, 0}};
  std::vector<PortDecision> decisions(requests.size());
  sched.schedule_slot_into(requests,
                           core::AvailabilityView(plane.data(), 3, 8), nullptr,
                           nullptr, decisions);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].granted);
  EXPECT_EQ(decisions[0].reason, core::RejectReason::kBadAvailabilityMask);
}

// End-to-end digest pin: one fixed-seed simulation covering the rearrange
// policy and random arbitration (the paths the other golden pins miss). Any
// drift in the slot pipeline shows up here as a changed digest.
constexpr std::uint64_t kDigestArrivals = 57609;
constexpr std::uint64_t kDigestHash = 12176375038399528583ULL;

TEST(SlotPipeline, SimulationDigestIsStable) {
  sim::SimulationConfig cfg;
  cfg.interconnect.n_fibers = 6;
  cfg.interconnect.scheme = core::ConversionScheme::circular(10, 2, 2);
  cfg.interconnect.arbitration = core::Arbitration::kRandom;
  cfg.interconnect.policy = sim::OccupiedPolicy::kRearrange;
  cfg.traffic.load = 0.8;
  cfg.slots = 1200;
  cfg.warmup = 100;
  cfg.seed = 777;
  const auto r = sim::run_simulation(cfg);
  // FNV-1a over the integer outcomes (floating-point fields derive from
  // these, so pinning the integers pins the report).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(r.arrivals);
  mix(r.losses);
  mix(r.preemptions);
  EXPECT_EQ(r.arrivals, kDigestArrivals);
  EXPECT_EQ(h, kDigestHash);
}

}  // namespace
}  // namespace wdm
