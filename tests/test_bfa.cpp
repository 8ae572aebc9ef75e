// Break and First Available (Table 3): Theorem 2 says it finds a maximum
// matching in every circular request graph. Property sweeps check optimality
// against Hopcroft–Karp, the per-break Theorem-3 lower bound, the parallel
// variant, and the occupied-channel extension (Section V).
#include <gtest/gtest.h>

#include "core/break_first_available.hpp"
#include "core/crossing.hpp"
#include "core/wave_mask.hpp"
#include "test_support.hpp"

namespace wdm {
namespace {

using core::ConversionScheme;
using core::RequestVector;

TEST(BreakFirstAvailable, EmptyRequestsGrantNothing) {
  const auto scheme = ConversionScheme::circular(8, 1, 1);
  const auto out = core::break_first_available(RequestVector(8), scheme);
  EXPECT_EQ(out.granted, 0);
}

TEST(BreakFirstAvailable, SingleRequest) {
  const auto scheme = ConversionScheme::circular(6, 1, 1);
  RequestVector rv(6);
  rv.add(3);
  const auto out = core::break_first_available(rv, scheme);
  EXPECT_EQ(out.granted, 1);
  test::expect_valid_assignment(out, rv, scheme);
}

TEST(BreakFirstAvailable, WrapAroundLoadBalancing) {
  // Circular conversion has no disadvantaged end wavelengths: three λ0
  // requests reach {λ5, λ0, λ1} and all three win (contrast the
  // EndWavelengthsAreDisadvantaged test for non-circular FA).
  const auto scheme = ConversionScheme::circular(6, 1, 1);
  RequestVector rv(6);
  rv.add(0, 3);
  const auto out = core::break_first_available(rv, scheme);
  EXPECT_EQ(out.granted, 3);
  test::expect_valid_assignment(out, rv, scheme);
}

TEST(BreakFirstAvailable, NoConversionDegenerate) {
  const auto scheme = ConversionScheme::circular(5, 0, 0);
  RequestVector rv(5);
  rv.add(0, 2);
  rv.add(3, 1);
  const auto out = core::break_first_available(rv, scheme);
  EXPECT_EQ(out.granted, 2);
  EXPECT_EQ(out.source[0], 0);
  EXPECT_EQ(out.source[3], 3);
}

TEST(BreakFirstAvailable, RejectsNonCircularAndFullRange) {
  RequestVector rv(4);
  EXPECT_THROW(
      core::break_first_available(rv, ConversionScheme::non_circular(4, 1, 1)),
      std::logic_error);
  EXPECT_THROW(
      core::break_first_available(rv, ConversionScheme::full_range(4)),
      std::logic_error);
}

TEST(BreakFirstAvailable, OccupiedChannels) {
  const auto scheme = ConversionScheme::circular(6, 1, 1);
  RequestVector rv(6);
  rv.add(0, 2);
  std::vector<std::uint8_t> mask{0, 1, 1, 1, 1, 1};  // b0 occupied
  const auto out = core::break_first_available(rv, scheme, mask);
  EXPECT_EQ(out.granted, 2);  // λ0 still reaches b5 and b1
  test::expect_valid_assignment(out, rv, scheme, mask);
}

TEST(BreakFirstAvailable, IsolatedRequestsAreSkipped) {
  // λ0's whole adjacency {b5, b0, b1} is occupied; λ3 still wins.
  const auto scheme = ConversionScheme::circular(6, 1, 1);
  RequestVector rv(6);
  rv.add(0, 2);
  rv.add(3, 1);
  std::vector<std::uint8_t> mask{0, 0, 1, 1, 1, 0};
  const auto out = core::break_first_available(rv, scheme, mask);
  EXPECT_EQ(out.granted, 1);
  // The winner candidate breaks at λ3's first free adjacent channel, b2.
  EXPECT_EQ(out.source[2], 3);
  test::expect_valid_assignment(out, rv, scheme, mask);
}

TEST(BreakFirstAvailable, AllChannelsOccupiedGrantsNothing) {
  const auto scheme = ConversionScheme::circular(4, 1, 1);
  RequestVector rv(4);
  rv.add(1, 2);
  const std::vector<std::uint8_t> mask(4, 0);
  EXPECT_EQ(core::break_first_available(rv, scheme, mask).granted, 0);
}

TEST(BreakFirstAvailable, ParallelVariantMatchesSerial) {
  // The paper's parallel variant runs all d single-break units side by side
  // and keeps the first of maximum size (Theorem 2; src/hw models it). The
  // serial sweep, which may stop early at an upper bound, must pick the
  // same winner.
  util::Rng rng(99);
  const auto scheme = ConversionScheme::circular(8, 2, 2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto rv = test::random_request_vector(rng, 8, 4, 0.4);
    const auto serial = core::break_first_available(rv, scheme);
    core::Wavelength w_i = 0;
    while (w_i < scheme.k() && rv.count(w_i) == 0) ++w_i;
    if (w_i == scheme.k()) {
      EXPECT_EQ(serial.granted, 0);
      continue;
    }
    core::ChannelAssignment best(scheme.k());
    for (const auto u : scheme.adjacency_list(w_i)) {
      const auto unit = core::bfa_single_break(rv, scheme, {}, w_i, u);
      if (unit.granted > best.granted) best = unit;
    }
    EXPECT_EQ(serial.granted, best.granted);
    EXPECT_EQ(serial.source, best.source);
  }
}

TEST(BreakFirstAvailable, DeterministicAcrossCalls) {
  const auto scheme = ConversionScheme::circular(10, 2, 1);
  util::Rng rng(5);
  const auto rv = test::random_request_vector(rng, 10, 6, 0.5);
  const auto a = core::break_first_available(rv, scheme);
  const auto b = core::break_first_available(rv, scheme);
  EXPECT_EQ(a.source, b.source);
}

// --- Bound-stopped sweep: exactly the first-of-maximum winner --------------

/// Table 3 spelled out: every single-break candidate at w_i's free adjacent
/// channels in minus-side order, keeping the first of maximum size.
core::ChannelAssignment first_of_maximum(
    const RequestVector& rv, const ConversionScheme& scheme,
    const std::vector<std::uint8_t>& mask) {
  const auto free = [&](core::Channel u) {
    return mask.empty() || mask[static_cast<std::size_t>(u)] != 0;
  };
  core::ChannelAssignment best(scheme.k());
  for (core::Wavelength w = 0; w < scheme.k(); ++w) {
    if (rv.count(w) == 0) continue;
    bool any = false;
    for (const auto u : scheme.adjacency_list(w)) {
      if (!free(u)) continue;
      const auto cand = core::bfa_single_break(rv, scheme, mask, w, u);
      if (!any || cand.granted > best.granted) best = cand;
      any = true;
    }
    if (any) break;  // w is the breaking wavelength
  }
  return best;
}

TEST(BfaSweep, BoundStoppedSweepIsFirstOfMaximum) {
  // Random counts and availability on every e/f split with d < k for
  // k = 2..20, then on random splits up to k = 70: the value-returning and
  // word sweeps must return the oracle's winner exactly, and the stop bound
  // must never undercut the Hopcroft–Karp maximum. The word kernel's scratch
  // and output persist across instances and shapes, as in a port scheduler.
  util::Rng rng(20031);
  core::BfaScratch mask_scratch;
  core::ChannelAssignment mask_out(1);
  int instances = 0;
  const auto check = [&](std::int32_t k, std::int32_t e, std::int32_t f) {
    const auto scheme = ConversionScheme::circular(k, e, f);
    RequestVector rv(k);
    const double load = rng.uniform01();
    for (core::Wavelength w = 0; w < k; ++w) {
      if (rng.bernoulli(load)) {
        rv.add(w, static_cast<std::int32_t>(1 + rng.uniform_below(3)));
      }
    }
    std::vector<std::uint8_t> mask;
    if (!rng.bernoulli(0.1)) mask = test::random_mask(rng, k, rng.uniform01());
    const auto expected = first_of_maximum(rv, scheme, mask);
    instances += 1;

    const auto byte_out = core::break_first_available(rv, scheme, mask);
    const std::vector<std::uint8_t> full(static_cast<std::size_t>(k), 1);
    std::vector<std::uint64_t> avail_words(core::mask_words(k), 0);
    std::vector<std::uint64_t> nonempty(core::mask_words(k), 0);
    core::pack_availability(mask.empty() ? full : mask, k, avail_words.data());
    for (core::Wavelength w = 0; w < k; ++w) {
      if (rv.count(w) > 0) core::mask_set(nonempty.data(), w);
    }
    core::break_first_available_masked_into(rv, scheme, avail_words, nonempty,
                                            mask_scratch, mask_out);
    ASSERT_EQ(byte_out.granted, expected.granted);
    ASSERT_EQ(byte_out.source, expected.source);
    ASSERT_EQ(mask_out.granted, expected.granted);
    ASSERT_EQ(mask_out.source, expected.source);

    // The bound by its definition: requests with a free adjacent channel,
    // free channels adjacent to a pending wavelength.
    std::int32_t live_requests = 0;
    std::int32_t live_channels = 0;
    for (core::Wavelength w = 0; w < k; ++w) {
      for (const auto u : scheme.adjacency_list(w)) {
        if (mask.empty() || mask[static_cast<std::size_t>(u)] != 0) {
          live_requests += rv.count(w);
          break;
        }
      }
    }
    for (core::Channel u = 0; u < k; ++u) {
      if (!mask.empty() && mask[static_cast<std::size_t>(u)] == 0) continue;
      for (core::Wavelength w = 0; w < k; ++w) {
        if (rv.count(w) > 0 && scheme.can_convert(w, u)) {
          live_channels += 1;
          break;
        }
      }
    }
    const auto bound = core::adjacent_vertex_bound(rv, scheme, mask);
    ASSERT_EQ(bound, std::min(live_requests, live_channels));
    ASSERT_GE(bound, test::oracle_max_matching(scheme, rv, mask));
  };
  for (std::int32_t k = 2; k <= 20; ++k) {
    for (std::int32_t e = 0; e <= k - 2; ++e) {
      for (std::int32_t f = 0; e + f + 1 < k; ++f) {
        SCOPED_TRACE(testing::Message()
                     << "k=" << k << " e=" << e << " f=" << f);
        check(k, e, f);
        if (HasFatalFailure()) return;
      }
    }
  }
  for (int it = 0; it < 6000; ++it) {
    const auto k = static_cast<std::int32_t>(2 + rng.uniform_below(69));
    const auto d = static_cast<std::int32_t>(
        1 + rng.uniform_below(static_cast<std::uint64_t>(k - 1)));
    const auto e = static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(d)));
    SCOPED_TRACE(testing::Message()
                 << "k=" << k << " e=" << e << " f=" << d - 1 - e);
    check(k, e, d - 1 - e);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(instances, 1330 + 6000);  // sum over k = 2..20 of k(k-1)/2
}

// --- Theorem 2 property sweep: BFA is maximum -------------------------------

struct BfaSweepParam {
  std::int32_t k, e, f, n_fibers;
  double load;
};

class BfaSweep : public ::testing::TestWithParam<BfaSweepParam> {};

TEST_P(BfaSweep, MatchesHopcroftKarp) {
  const auto [k, e, f, n_fibers, load] = GetParam();
  const auto scheme = ConversionScheme::circular(k, e, f);
  util::Rng rng(static_cast<std::uint64_t>(k * 2027 + e * 211 + f * 13) +
                static_cast<std::uint64_t>(load * 883));
  for (int trial = 0; trial < 60; ++trial) {
    const auto rv = test::random_request_vector(rng, k, n_fibers, load);
    const auto bfa = core::break_first_available(rv, scheme);
    test::expect_valid_assignment(bfa, rv, scheme);
    EXPECT_EQ(bfa.granted, test::oracle_max_matching(scheme, rv))
        << "k=" << k << " e=" << e << " f=" << f << " trial=" << trial;
  }
}

TEST_P(BfaSweep, MatchesHopcroftKarpWithOccupiedChannels) {
  const auto [k, e, f, n_fibers, load] = GetParam();
  const auto scheme = ConversionScheme::circular(k, e, f);
  util::Rng rng(static_cast<std::uint64_t>(k * 41 + e * 17 + f * 3) + 1234);
  for (int trial = 0; trial < 60; ++trial) {
    const auto rv = test::random_request_vector(rng, k, n_fibers, load);
    const auto mask = test::random_mask(rng, k, 0.6);
    const auto bfa = core::break_first_available(rv, scheme, mask);
    test::expect_valid_assignment(bfa, rv, scheme, mask);
    EXPECT_EQ(bfa.granted, test::oracle_max_matching(scheme, rv, mask))
        << "k=" << k << " e=" << e << " f=" << f << " trial=" << trial;
  }
}

TEST_P(BfaSweep, EverySingleBreakRespectsTheoremThree) {
  // Theorem 3: breaking at the δ(u)-th edge yields a matching within
  // max{δ(u)-1, d-δ(u)} of maximum — for *every* candidate edge.
  const auto [k, e, f, n_fibers, load] = GetParam();
  const auto scheme = ConversionScheme::circular(k, e, f);
  util::Rng rng(static_cast<std::uint64_t>(k * 53 + e * 29 + f * 5) + 4321);
  for (int trial = 0; trial < 25; ++trial) {
    const auto rv = test::random_request_vector(rng, k, n_fibers, load);
    const auto w_i = rv.first_nonempty();
    if (w_i == core::kNone) continue;
    const auto maximum = test::oracle_max_matching(scheme, rv);
    for (const auto u : scheme.adjacency_list(w_i)) {
      const auto single = core::bfa_single_break(rv, scheme, {}, w_i, u);
      test::expect_valid_assignment(single, rv, scheme);
      EXPECT_LE(single.granted, maximum);
      const auto delta = core::delta_of(scheme, w_i, u);
      EXPECT_GE(single.granted,
                maximum - core::breaking_gap_bound(scheme.degree(), delta))
          << "k=" << k << " u=" << u << " delta=" << delta;
    }
  }
}

TEST_P(BfaSweep, SingleBreakWithMasksStaysWithinTheoremThreeOfOracle) {
  // Section V + Theorem 3 together: with occupied channels deleted, every
  // single-break schedule is still feasible and within the gap bound of the
  // Hopcroft–Karp maximum on the masked request graph.
  const auto [k, e, f, n_fibers, load] = GetParam();
  const auto scheme = ConversionScheme::circular(k, e, f);
  util::Rng rng(static_cast<std::uint64_t>(k * 67 + e * 31 + f * 7) + 777);
  for (int trial = 0; trial < 25; ++trial) {
    const auto rv = test::random_request_vector(rng, k, n_fibers, load);
    const auto mask = test::random_mask(rng, k, 0.6);
    const auto w_i = [&] {
      for (core::Wavelength w = 0; w < k; ++w) {
        if (rv.count(w) == 0) continue;
        for (const auto u : scheme.adjacency_list(w)) {
          if (mask[static_cast<std::size_t>(u)] != 0) return w;
        }
      }
      return core::kNone;
    }();
    if (w_i == core::kNone) continue;
    const auto maximum = test::oracle_max_matching(scheme, rv, mask);
    for (const auto u : scheme.adjacency_list(w_i)) {
      if (mask[static_cast<std::size_t>(u)] == 0) continue;  // occupied
      const auto single = core::bfa_single_break(rv, scheme, mask, w_i, u);
      test::expect_valid_assignment(single, rv, scheme, mask);
      EXPECT_LE(single.granted, maximum);
      const auto delta = core::delta_of(scheme, w_i, u);
      EXPECT_GE(single.granted,
                maximum - core::breaking_gap_bound(scheme.degree(), delta))
          << "k=" << k << " u=" << u << " delta=" << delta;
    }
  }
}

TEST_P(BfaSweep, AdjacencyListOrderGivesDeltaIdxPlusOne) {
  // approx_break_first_available assumes adjacency_list(w)[idx] is the
  // (idx+1)-th crossing edge, i.e. delta_of == idx + 1 in minus-to-plus
  // order. Pin that ordering contract for every wavelength of every shape.
  const auto [k, e, f, n_fibers, load] = GetParam();
  (void)n_fibers;
  (void)load;
  const auto scheme = ConversionScheme::circular(k, e, f);
  for (core::Wavelength w = 0; w < k; ++w) {
    const auto adjacency = scheme.adjacency_list(w);
    ASSERT_EQ(static_cast<std::int32_t>(adjacency.size()), scheme.degree());
    for (std::size_t idx = 0; idx < adjacency.size(); ++idx) {
      EXPECT_EQ(core::delta_of(scheme, w, adjacency[idx]),
                static_cast<std::int32_t>(idx) + 1)
          << "k=" << k << " w=" << w << " idx=" << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfaSweep,
    ::testing::Values(
        BfaSweepParam{2, 0, 0, 4, 0.5},   // smallest ring, no conversion
        BfaSweepParam{3, 1, 0, 4, 0.5},   // d = 2 on a 3-ring
        BfaSweepParam{4, 1, 1, 4, 0.4},   // d = 3, tiny ring
        BfaSweepParam{6, 1, 1, 4, 0.3},   // the paper's running shape
        BfaSweepParam{6, 1, 1, 8, 0.7},   // heavy overload
        BfaSweepParam{8, 2, 2, 4, 0.3},   // d = 5
        BfaSweepParam{8, 3, 1, 4, 0.3},   // asymmetric e > f
        BfaSweepParam{8, 1, 3, 4, 0.3},   // asymmetric f > e
        BfaSweepParam{8, 0, 3, 4, 0.3},   // e = 0 (plus side only)
        BfaSweepParam{8, 3, 0, 4, 0.3},   // f = 0 (minus side only)
        BfaSweepParam{16, 2, 2, 2, 0.2},  // larger k
        BfaSweepParam{9, 4, 3, 3, 0.35},  // d = k - 1 (maximal limited range)
        BfaSweepParam{16, 7, 7, 2, 0.25},  // d = 15 = k - 1
        BfaSweepParam{32, 3, 3, 2, 0.15}),
    [](const ::testing::TestParamInfo<BfaSweepParam>& pinfo) {
      const auto& p = pinfo.param;
      return "k" + std::to_string(p.k) + "_e" + std::to_string(p.e) + "_f" +
             std::to_string(p.f) + "_N" + std::to_string(p.n_fibers) + "_L" +
             std::to_string(static_cast<int>(p.load * 100));
    });

}  // namespace
}  // namespace wdm
