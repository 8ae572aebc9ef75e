// OutputPortScheduler: algorithm dispatch, baseline equivalence, and the
// fairness of the arbitration stage.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "core/health.hpp"
#include "core/scheduler.hpp"
#include "core/wave_mask.hpp"
#include "test_support.hpp"

namespace wdm {
namespace {

using core::Algorithm;
using core::Arbitration;
using core::ConversionScheme;
using core::OutputPortScheduler;
using core::PortDecision;
using core::Request;
using core::RequestVector;

TEST(Scheduler, AutoResolution) {
  OutputPortScheduler circ(ConversionScheme::circular(6, 1, 1));
  EXPECT_EQ(circ.algorithm(), Algorithm::kBreakFirstAvailable);
  OutputPortScheduler nc(ConversionScheme::non_circular(6, 1, 1));
  EXPECT_EQ(nc.algorithm(), Algorithm::kFirstAvailable);
  OutputPortScheduler full(ConversionScheme::full_range(6));
  EXPECT_EQ(full.algorithm(), Algorithm::kFullRange);
}

TEST(Scheduler, MismatchedAlgorithmRejected) {
  EXPECT_THROW(OutputPortScheduler(ConversionScheme::circular(6, 1, 1),
                                   Algorithm::kFirstAvailable),
               std::logic_error);
  EXPECT_THROW(OutputPortScheduler(ConversionScheme::non_circular(6, 1, 1),
                                   Algorithm::kBreakFirstAvailable),
               std::logic_error);
  EXPECT_THROW(OutputPortScheduler(ConversionScheme::circular(6, 1, 1),
                                   Algorithm::kFullRange),
               std::logic_error);
  EXPECT_THROW(OutputPortScheduler(ConversionScheme::circular(6, 1, 1),
                                   Algorithm::kGlover),
               std::logic_error);
}

TEST(Scheduler, DecisionsAreConsistentWithRequests) {
  OutputPortScheduler sched(ConversionScheme::circular(6, 1, 1));
  std::vector<Request> requests{{0, 1, 10, 1}, {1, 1, 11, 1}, {2, 4, 12, 1}};
  const auto decisions = sched.schedule(requests);
  ASSERT_EQ(decisions.size(), 3u);
  std::set<core::Channel> channels;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i].granted) continue;
    EXPECT_TRUE(sched.scheme().can_convert(requests[i].wavelength,
                                           decisions[i].channel));
    EXPECT_TRUE(channels.insert(decisions[i].channel).second)
        << "channel assigned twice";
  }
  // All three fit (λ1 x2 reach {0,1,2}, λ4 reaches {3,4,5}).
  EXPECT_EQ(channels.size(), 3u);
}

TEST(Scheduler, BaselinesMatchFastAlgorithms) {
  util::Rng rng(6060);
  for (int trial = 0; trial < 40; ++trial) {
    const auto rv = test::random_request_vector(rng, 8, 4, 0.4);
    const auto mask = test::random_mask(rng, 8, 0.75);

    // Circular: BFA vs Hopcroft–Karp baseline.
    const auto circ = ConversionScheme::circular(8, 2, 1);
    OutputPortScheduler bfa(circ, Algorithm::kBreakFirstAvailable);
    OutputPortScheduler hk(circ, Algorithm::kHopcroftKarp);
    EXPECT_EQ(bfa.assign_channels(rv, mask).granted,
              hk.assign_channels(rv, mask).granted);

    // Non-circular: FA vs Glover vs Hopcroft–Karp.
    const auto nc = ConversionScheme::non_circular(8, 2, 1);
    OutputPortScheduler fa(nc, Algorithm::kFirstAvailable);
    OutputPortScheduler glover(nc, Algorithm::kGlover);
    OutputPortScheduler hk2(nc, Algorithm::kHopcroftKarp);
    const auto fa_size = fa.assign_channels(rv, mask).granted;
    EXPECT_EQ(fa_size, glover.assign_channels(rv, mask).granted);
    EXPECT_EQ(fa_size, hk2.assign_channels(rv, mask).granted);
  }
}

TEST(Scheduler, GloverHandlesOccupiedChannelsByCompaction) {
  const auto nc = ConversionScheme::non_circular(6, 1, 1);
  OutputPortScheduler glover(nc, Algorithm::kGlover);
  RequestVector rv(6);
  rv.add(1, 2);
  const std::vector<std::uint8_t> mask{1, 0, 1, 1, 1, 1};
  const auto out = glover.assign_channels(rv, mask);
  EXPECT_EQ(out.granted, 2);
  test::expect_valid_assignment(out, rv, nc, mask);
}

TEST(Scheduler, FifoArbitrationPrefersEarlierRequests) {
  OutputPortScheduler sched(ConversionScheme::circular(6, 1, 1),
                            Algorithm::kAuto, Arbitration::kFifo);
  // Four λ0 requests, only three reachable channels {5, 0, 1}.
  std::vector<Request> requests{{0, 0, 1, 1}, {1, 0, 2, 1}, {2, 0, 3, 1},
                                {3, 0, 4, 1}};
  const auto decisions = sched.schedule(requests);
  EXPECT_TRUE(decisions[0].granted);
  EXPECT_TRUE(decisions[1].granted);
  EXPECT_TRUE(decisions[2].granted);
  EXPECT_FALSE(decisions[3].granted);
}

TEST(Scheduler, RoundRobinArbitrationRotatesLosers) {
  OutputPortScheduler sched(ConversionScheme::circular(4, 0, 0),
                            Algorithm::kAuto, Arbitration::kRoundRobin);
  // Two λ0 requests per slot, one channel: the loser alternates.
  std::vector<Request> requests{{0, 0, 1, 1}, {1, 0, 2, 1}};
  std::map<std::int32_t, int> wins;
  for (int slot = 0; slot < 10; ++slot) {
    const auto decisions = sched.schedule(requests);
    EXPECT_NE(decisions[0].granted, decisions[1].granted);
    wins[decisions[0].granted ? 0 : 1] += 1;
  }
  EXPECT_EQ(wins[0], 5);
  EXPECT_EQ(wins[1], 5);
}

TEST(Scheduler, RandomArbitrationIsFairInTheLongRun) {
  OutputPortScheduler sched(ConversionScheme::circular(4, 0, 0),
                            Algorithm::kAuto, Arbitration::kRandom, 99);
  std::vector<Request> requests{{0, 0, 1, 1}, {1, 0, 2, 1}};
  int wins0 = 0;
  const int slots = 4000;
  for (int slot = 0; slot < slots; ++slot) {
    const auto decisions = sched.schedule(requests);
    wins0 += decisions[0].granted ? 1 : 0;
  }
  EXPECT_NEAR(wins0, slots / 2, slots / 10);
}

TEST(Scheduler, ApproxAlgorithmNeverExceedsExact) {
  util::Rng rng(31337);
  const auto scheme = ConversionScheme::circular(10, 2, 2);
  OutputPortScheduler exact(scheme, Algorithm::kBreakFirstAvailable);
  OutputPortScheduler approx(scheme, Algorithm::kApproxBfa);
  for (int trial = 0; trial < 40; ++trial) {
    const auto rv = test::random_request_vector(rng, 10, 4, 0.4);
    const auto exact_size = exact.assign_channels(rv).granted;
    const auto approx_size = approx.assign_channels(rv).granted;
    EXPECT_LE(approx_size, exact_size);
    EXPECT_GE(approx_size, exact_size - (scheme.degree() - 1) / 2);
  }
}

TEST(Scheduler, EmptyScheduleCall) {
  OutputPortScheduler sched(ConversionScheme::circular(6, 1, 1));
  const auto decisions = sched.schedule({});
  EXPECT_TRUE(decisions.empty());
}

// --- Golden decision pin ----------------------------------------------------
//
// FNV-1a hashes of every PortDecision field over a fixed-seed stream of
// random port instances: occupied channels, malformed requests, wrong-shaped
// masks, fault states, degraded slots and the packed-bit fast path. One
// scheduler persists across the stream, so round-robin cursors and the
// random-arbitration RNG carry from instance to instance. The hashes were
// captured from the per-wavelength CSR arbitration that the single-pass walk
// replaced: any change to a grant, a channel, a rejection reason or the
// arbitration draw order moves them.

constexpr int kGoldenInstances = 200;
constexpr std::array<Algorithm, 3> kGoldenAlgorithms{
    Algorithm::kFirstAvailable, Algorithm::kBreakFirstAvailable,
    Algorithm::kApproxBfa};
constexpr std::array<std::int32_t, 3> kGoldenKs{5, 16, 70};

/// d = 3 at k = 5, an asymmetric d = 4 at k = 16, d = 7 at k = 70.
ConversionScheme golden_scheme(Algorithm algorithm, std::int32_t k) {
  const std::int32_t e = k == 5 ? 1 : k == 16 ? 2 : 3;
  const std::int32_t f = k == 5 ? 1 : k == 16 ? 1 : 3;
  return algorithm == Algorithm::kFirstAvailable
             ? ConversionScheme::non_circular(k, e, f)
             : ConversionScheme::circular(k, e, f);
}

std::uint64_t golden_hash(Arbitration arbitration, Algorithm algorithm,
                          std::int32_t k, bool batch) {
  OutputPortScheduler sched(
      golden_scheme(algorithm, k), algorithm, arbitration,
      std::uint64_t{0x5eed} + static_cast<std::uint64_t>(k));
  util::Rng rng(7000 + static_cast<std::uint64_t>(k));
  const auto below = [&rng](std::int64_t n) {
    return static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(n)));
  };
  test::Fnv1a h;
  std::vector<Request> requests;
  std::vector<std::int32_t> wavelengths, input_fibers, durations;
  std::vector<std::uint8_t> avail;
  std::vector<std::uint64_t> bits(core::mask_words(k), 0);
  std::vector<PortDecision> decisions;
  for (int inst = 0; inst < kGoldenInstances; ++inst) {
    const auto n = static_cast<std::size_t>(below(3 * k + 1));
    requests.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Request r{below(8), below(k), i, 1 + below(3)};
      if (rng.bernoulli(0.05)) {
        switch (below(4)) {
          case 0: r.wavelength = k + below(3); break;
          case 1: r.wavelength = -1; break;
          case 2: r.input_fiber = -1; break;
          default: r.duration = 0; break;
        }
      }
      requests.push_back(r);
    }
    const double shape = rng.uniform01();
    if (shape < 0.2) {
      avail.clear();  // all free
    } else if (shape < 0.23) {
      avail.assign(static_cast<std::size_t>(k + 1), 1);  // wrong shape
    } else {
      avail = test::random_mask(rng, k, rng.uniform01());
    }
    const bool pack = avail.size() == static_cast<std::size_t>(k) &&
                      rng.bernoulli(0.5);
    if (pack) core::pack_availability(avail, k, bits.data());
    const std::span<const std::uint64_t> avail_bits =
        pack ? std::span<const std::uint64_t>(bits)
             : std::span<const std::uint64_t>{};
    const bool degraded = rng.bernoulli(0.2);
    decisions.assign(n, PortDecision{});

    if (batch) {
      wavelengths.clear();
      input_fibers.clear();
      durations.clear();
      for (const auto& r : requests) {
        wavelengths.push_back(r.wavelength);
        input_fibers.push_back(r.input_fiber);
        durations.push_back(r.duration);
      }
      sched.schedule_batch_into(wavelengths, input_fibers, durations, avail,
                                avail_bits, nullptr, decisions, degraded);
    } else {
      core::HealthMask health;
      const bool with_health = rng.bernoulli(0.5);
      if (with_health) {
        health.fiber_faulted = rng.bernoulli(0.05);
        const double hs = rng.uniform01();
        if (hs < 0.03) {
          health.channels.assign(static_cast<std::size_t>(k + 2),
                                 core::ChannelHealth::kHealthy);
        } else if (hs >= 0.2) {
          health.channels.resize(static_cast<std::size_t>(k));
          for (auto& c : health.channels) {
            const double u = rng.uniform01();
            c = u < 0.1   ? core::ChannelHealth::kConverterFaulted
                : u < 0.2 ? core::ChannelHealth::kChannelFaulted
                          : core::ChannelHealth::kHealthy;
          }
        }
      }
      sched.schedule_into(requests, avail, with_health ? &health : nullptr,
                          decisions, degraded, avail_bits);
    }
    h.add(static_cast<std::uint64_t>(n));
    for (const auto& d : decisions) {
      h.add(d.granted);
      h.add(d.channel);
      h.add(static_cast<std::uint8_t>(d.reason));
    }
  }
  return h.value();
}

class ArbitrationGolden : public ::testing::Test {
 protected:
  /// `expected` is indexed [algorithm][k][path], path 0 = schedule_into,
  /// 1 = schedule_batch_into, in kGoldenAlgorithms / kGoldenKs order.
  static void expect_golden(Arbitration arbitration,
                            const std::array<std::uint64_t, 18>& expected) {
    std::size_t idx = 0;
    for (const Algorithm algorithm : kGoldenAlgorithms) {
      for (const std::int32_t k : kGoldenKs) {
        for (const bool batch : {false, true}) {
          const std::uint64_t got =
              golden_hash(arbitration, algorithm, k, batch);
          EXPECT_EQ(got, expected[idx])
              << "algorithm " << static_cast<int>(algorithm) << " k=" << k
              << (batch ? " schedule_batch_into" : " schedule_into")
              << " hash 0x" << std::hex << got;
          ++idx;
        }
      }
    }
  }
};

TEST_F(ArbitrationGolden, Fifo) {
  expect_golden(Arbitration::kFifo, {{
      // First Available, k = 5 / 16 / 70 x {schedule_into, batch}
      0x95e523fef7bfe66bULL, 0x11c27373fca47e50ULL,
      0x2dfbb2376d7091c3ULL, 0x519063453c0da3a2ULL,
      0x40ba5889ce8d3871ULL, 0x97f9e5c25b2a8e86ULL,
      // exact BFA, k = 5 / 16 / 70 x {schedule_into, batch}
      0xeee096b3b8b104efULL, 0x90a4ce8f5baeac28ULL,
      0x89a32cbc735c4e1aULL, 0x243d3d6408b45e85ULL,
      0x4b217d6c4704adafULL, 0xf939098daded227ULL,
      // approximate BFA, k = 5 / 16 / 70 x {schedule_into, batch}
      0xe4288fe102a2377ULL, 0x94aa00856492f4aULL,
      0xbec630da7b5c9aaeULL, 0xbc6e4fb516f50918ULL,
      0x49b9e75c485beb42ULL, 0x2135fcd192adac4bULL
  }});
}

TEST_F(ArbitrationGolden, RoundRobin) {
  expect_golden(Arbitration::kRoundRobin, {{
      // First Available, k = 5 / 16 / 70 x {schedule_into, batch}
      0xb4f6fe4cea21189fULL, 0x7f86b453e0dd19a4ULL,
      0x1e207e345ace7f47ULL, 0x8874d631a1b8f846ULL,
      0xc242bdc44a246a05ULL, 0xbd54c223d0c617aULL,
      // exact BFA, k = 5 / 16 / 70 x {schedule_into, batch}
      0x815c6212ec16d617ULL, 0x5b1c9c679788f82cULL,
      0xe2acbf7fe3fec1b6ULL, 0x57bee63bb7034989ULL,
      0x2eb25b7131a285bbULL, 0x3eeeb0b2de9cd63fULL,
      // approximate BFA, k = 5 / 16 / 70 x {schedule_into, batch}
      0x316768981214cce7ULL, 0x4ca945d4249fa872ULL,
      0xaf6f74c8b6646142ULL, 0xc9b43e468cc734b4ULL,
      0xaf68893d9d3fc46aULL, 0xb51f5d02964490bfULL
  }});
}

TEST_F(ArbitrationGolden, Random) {
  expect_golden(Arbitration::kRandom, {{
      // First Available, k = 5 / 16 / 70 x {schedule_into, batch}
      0xd8f5434cd53adddfULL, 0x18fdb09559c863a0ULL,
      0x7bb355a5b1171483ULL, 0x1a0360e52b05413eULL,
      0x61242dfba9679ae1ULL, 0xc5d37db1cefad30aULL,
      // exact BFA, k = 5 / 16 / 70 x {schedule_into, batch}
      0xbb9dc1e8bb49838bULL, 0xe0ed93af79be02b4ULL,
      0x4cdcc71a3ba592eULL, 0x47c0391bdf82a595ULL,
      0xf06e3448a472d2afULL, 0x99d6e15f25efab7ULL,
      // approximate BFA, k = 5 / 16 / 70 x {schedule_into, batch}
      0xbaf6f2ed06309ec3ULL, 0x4da6b4d575435586ULL,
      0xb0a89a1e841da2eaULL, 0xfabf3489ec220ac8ULL,
      0xadb6be2372c2da8eULL, 0x604cb8c3e851a19fULL
  }});
}

}  // namespace
}  // namespace wdm
