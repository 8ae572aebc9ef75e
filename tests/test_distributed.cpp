// DistributedScheduler: per-output-fiber independence, serial/parallel
// equivalence in matching size, and request conservation.
#include <gtest/gtest.h>

#include <set>

#include "core/distributed.hpp"
#include "test_support.hpp"

namespace wdm {
namespace {

using core::Algorithm;
using core::ConversionScheme;
using core::DistributedScheduler;
using core::SlotRequest;

std::vector<SlotRequest> random_slot(util::Rng& rng, std::int32_t n_fibers,
                                     std::int32_t k, double load) {
  std::vector<SlotRequest> out;
  std::uint64_t id = 0;
  for (std::int32_t fiber = 0; fiber < n_fibers; ++fiber) {
    for (core::Wavelength w = 0; w < k; ++w) {
      if (rng.bernoulli(load)) {
        out.push_back(SlotRequest{
            fiber, w,
            static_cast<std::int32_t>(rng.uniform_below(
                static_cast<std::uint64_t>(n_fibers))),
            id++, 1});
      }
    }
  }
  return out;
}

TEST(Distributed, DecisionsRespectDestinationsAndChannels) {
  util::Rng rng(808);
  DistributedScheduler sched(4, ConversionScheme::circular(6, 1, 1));
  const auto requests = random_slot(rng, 4, 6, 0.5);
  const auto decisions = sched.schedule_slot(requests);
  ASSERT_EQ(decisions.size(), requests.size());
  // No output channel double-booked within a fiber; conversions legal.
  std::set<std::pair<std::int32_t, core::Channel>> used;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!decisions[i].granted) continue;
    EXPECT_TRUE(sched.scheme().can_convert(requests[i].wavelength,
                                           decisions[i].channel));
    EXPECT_TRUE(
        used.insert({requests[i].output_fiber, decisions[i].channel}).second);
  }
}

TEST(Distributed, MatchingSizePerFiberIsMaximum) {
  util::Rng rng(909);
  const auto scheme = ConversionScheme::circular(8, 1, 1);
  DistributedScheduler sched(5, scheme);
  for (int trial = 0; trial < 20; ++trial) {
    const auto requests = random_slot(rng, 5, 8, 0.5);
    const auto decisions = sched.schedule_slot(requests);
    // Aggregate per-fiber and compare with the oracle fiber by fiber.
    for (std::int32_t fiber = 0; fiber < 5; ++fiber) {
      core::RequestVector rv(8);
      std::int32_t granted = 0;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].output_fiber != fiber) continue;
        rv.add(requests[i].wavelength);
        granted += decisions[i].granted ? 1 : 0;
      }
      EXPECT_EQ(granted, test::oracle_max_matching(scheme, rv))
          << "fiber " << fiber;
    }
  }
}

TEST(Distributed, ParallelEqualsSerialInSize) {
  // In a switch the N per-fiber schedulers run side by side, each seeing
  // only its own destination subset. The serial fan-out must decide exactly
  // what N independent port schedulers decide on those subsets.
  util::Rng rng(1010);
  const auto scheme = ConversionScheme::circular(8, 2, 2);
  DistributedScheduler serial(6, scheme, Algorithm::kAuto,
                              core::Arbitration::kFifo, 7);
  std::vector<core::OutputPortScheduler> units;
  for (std::int32_t fiber = 0; fiber < 6; ++fiber) {
    units.emplace_back(scheme, Algorithm::kAuto, core::Arbitration::kFifo);
  }
  for (int trial = 0; trial < 10; ++trial) {
    const auto requests = random_slot(rng, 6, 8, 0.6);
    const auto a = serial.schedule_slot(requests);
    ASSERT_EQ(a.size(), requests.size());
    for (std::int32_t fiber = 0; fiber < 6; ++fiber) {
      std::vector<core::Request> subset;
      std::vector<std::size_t> origin;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].output_fiber != fiber) continue;
        subset.push_back(core::Request{requests[i].input_fiber,
                                       requests[i].wavelength, requests[i].id,
                                       requests[i].duration});
        origin.push_back(i);
      }
      const auto b =
          units[static_cast<std::size_t>(fiber)].schedule(subset);
      ASSERT_EQ(b.size(), subset.size());
      // FIFO arbitration + deterministic kernels: identical decisions.
      for (std::size_t j = 0; j < b.size(); ++j) {
        EXPECT_EQ(a[origin[j]].granted, b[j].granted);
        EXPECT_EQ(a[origin[j]].channel, b[j].channel);
      }
    }
  }
}

TEST(Distributed, PerFiberAvailabilityMasks) {
  DistributedScheduler sched(2, ConversionScheme::circular(4, 1, 1));
  // Fiber 0 fully occupied, fiber 1 free.
  std::vector<std::vector<std::uint8_t>> availability{
      {0, 0, 0, 0}, {1, 1, 1, 1}};
  std::vector<SlotRequest> requests{{0, 1, 0, 1, 1}, {0, 1, 1, 2, 1}};
  const auto decisions = sched.schedule_slot(requests, &availability);
  EXPECT_FALSE(decisions[0].granted);  // destined to the occupied fiber
  EXPECT_TRUE(decisions[1].granted);
}

TEST(Distributed, InvalidDestinationRejectedPerRequest) {
  // A malformed destination no longer throws: the bad request comes back
  // rejected with a reason, and the well-formed one in the same slot is
  // scheduled normally.
  DistributedScheduler sched(2, ConversionScheme::circular(4, 1, 1));
  std::vector<SlotRequest> requests{{0, 0, 5, 1, 1},   // fiber 5 of 2
                                    {0, 0, -1, 2, 1},  // negative fiber
                                    {0, 0, 1, 3, 1}};  // valid
  const auto decisions = sched.schedule_slot(requests);
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_FALSE(decisions[0].granted);
  EXPECT_EQ(decisions[0].reason, core::RejectReason::kInvalidOutputFiber);
  EXPECT_FALSE(decisions[1].granted);
  EXPECT_EQ(decisions[1].reason, core::RejectReason::kInvalidOutputFiber);
  EXPECT_TRUE(decisions[2].granted);
  EXPECT_EQ(decisions[2].reason, core::RejectReason::kGranted);
}

TEST(Distributed, InvalidWavelengthAndDurationRejectedPerRequest) {
  DistributedScheduler sched(2, ConversionScheme::circular(4, 1, 1));
  std::vector<SlotRequest> requests{{0, 9, 0, 1, 1},    // wavelength 9 of 4
                                    {0, -2, 0, 2, 1},   // negative wavelength
                                    {0, 1, 0, 3, 0},    // zero duration
                                    {-1, 1, 0, 4, 1},   // negative input fiber
                                    {0, 1, 0, 5, 1}};   // valid
  const auto decisions = sched.schedule_slot(requests);
  ASSERT_EQ(decisions.size(), 5u);
  EXPECT_EQ(decisions[0].reason, core::RejectReason::kInvalidWavelength);
  EXPECT_EQ(decisions[1].reason, core::RejectReason::kInvalidWavelength);
  EXPECT_EQ(decisions[2].reason, core::RejectReason::kInvalidDuration);
  EXPECT_EQ(decisions[3].reason, core::RejectReason::kInvalidInputFiber);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(decisions[static_cast<std::size_t>(i)].granted);
    EXPECT_TRUE(core::is_malformed(
        decisions[static_cast<std::size_t>(i)].reason));
  }
  EXPECT_TRUE(decisions[4].granted);
}

TEST(Distributed, WrongAvailabilityShapeRejectedPerRequest) {
  DistributedScheduler sched(3, ConversionScheme::circular(4, 1, 1));
  std::vector<std::vector<std::uint8_t>> availability(2);  // need 3
  std::vector<SlotRequest> requests{{0, 0, 0, 1, 1}, {0, 1, 2, 2, 1}};
  const auto decisions = sched.schedule_slot(requests, &availability);
  ASSERT_EQ(decisions.size(), 2u);
  for (const auto& d : decisions) {
    EXPECT_FALSE(d.granted);
    EXPECT_EQ(d.reason, core::RejectReason::kBadAvailabilityMask);
  }
}

TEST(Distributed, RaggedInnerMaskRejectsOnlyThatFiber) {
  // Outer shape is right but fiber 0's mask is ragged: fiber 0's requests
  // are rejected explicitly, fiber 1 schedules normally.
  DistributedScheduler sched(2, ConversionScheme::circular(4, 1, 1));
  std::vector<std::vector<std::uint8_t>> availability{{1, 1}, {1, 1, 1, 1}};
  std::vector<SlotRequest> requests{{0, 0, 0, 1, 1}, {0, 1, 1, 2, 1}};
  const auto decisions = sched.schedule_slot(requests, &availability);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_FALSE(decisions[0].granted);
  EXPECT_EQ(decisions[0].reason, core::RejectReason::kBadAvailabilityMask);
  EXPECT_TRUE(decisions[1].granted);
}

TEST(Distributed, MalformedRequestsDoNotDisturbValidOnes) {
  // The matching granted to well-formed requests is unchanged by malformed
  // requests riding along in the same slot.
  util::Rng rng(321);
  const auto scheme = ConversionScheme::circular(6, 1, 1);
  for (int trial = 0; trial < 20; ++trial) {
    DistributedScheduler clean(3, scheme, Algorithm::kAuto,
                               core::Arbitration::kFifo, 5);
    DistributedScheduler dirty(3, scheme, Algorithm::kAuto,
                               core::Arbitration::kFifo, 5);
    const auto valid = random_slot(rng, 3, 6, 0.5);
    auto mixed = valid;
    mixed.push_back(SlotRequest{0, 17, 1, 900, 1});   // bad wavelength
    mixed.push_back(SlotRequest{0, 0, 42, 901, 1});   // bad fiber
    mixed.push_back(SlotRequest{0, 0, 0, 902, -3});   // bad duration
    const auto a = clean.schedule_slot(valid);
    const auto b = dirty.schedule_slot(mixed);
    for (std::size_t i = 0; i < valid.size(); ++i) {
      EXPECT_EQ(a[i].granted, b[i].granted);
      EXPECT_EQ(a[i].channel, b[i].channel);
    }
    for (std::size_t i = valid.size(); i < mixed.size(); ++i) {
      EXPECT_FALSE(b[i].granted);
      EXPECT_TRUE(core::is_malformed(b[i].reason));
    }
  }
}

TEST(Distributed, EveryDecisionIsExplicit) {
  // No decision ever leaves schedule_slot as kUndecided, granted or not.
  util::Rng rng(654);
  DistributedScheduler sched(4, ConversionScheme::circular(8, 2, 1));
  for (int trial = 0; trial < 20; ++trial) {
    auto requests = random_slot(rng, 4, 8, 0.6);
    if (trial % 2 == 1) {
      requests.push_back(SlotRequest{0, -1, 0, 999, 1});
    }
    const auto decisions = sched.schedule_slot(requests);
    for (const auto& d : decisions) {
      EXPECT_NE(d.reason, core::RejectReason::kUndecided);
      EXPECT_EQ(d.granted, d.reason == core::RejectReason::kGranted);
    }
  }
}

TEST(Distributed, PortAccessor) {
  DistributedScheduler sched(3, ConversionScheme::non_circular(4, 1, 1));
  EXPECT_EQ(sched.port(0).algorithm(), Algorithm::kFirstAvailable);
  EXPECT_THROW(sched.port(3), std::logic_error);
  EXPECT_EQ(sched.n_output_fibers(), 3);
  EXPECT_EQ(sched.k(), 4);
}

}  // namespace
}  // namespace wdm
