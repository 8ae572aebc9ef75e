// RNG determinism, distribution sanity, and stream independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace wdm {
namespace {

TEST(Rng, DeterministicForSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  util::Rng parent1(7), parent2(7);
  util::Rng child1 = parent1.split();
  util::Rng child2 = parent2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next(), child2.next());
  // A second split from the same parent is a different stream.
  util::Rng sibling = parent1.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += sibling.next() == child1.next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformBelowStaysInRange) {
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(7), 7u);
  }
}

TEST(Rng, UniformBelowCoversSupport) {
  util::Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformBelowIsApproximatelyUniform) {
  util::Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_below(8)] += 1;
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 / 5);  // within 20%
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  util::Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  util::Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  util::Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMean) {
  util::Rng rng(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GeometricSupportAndMean) {
  util::Rng rng(19);
  const util::GeometricSampler geometric(0.25);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto g = geometric.sample(rng);
    EXPECT_GE(g, 1u);
    sum += static_cast<double>(g);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.2);  // mean 1/p
  EXPECT_EQ(util::GeometricSampler(1.0).sample(rng), 1u);
}

TEST(Zipf, AlphaZeroIsUniform) {
  util::Rng rng(23);
  util::ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[zipf.sample(rng)] += 1;
  for (const int c : counts) EXPECT_NEAR(c, n / 4, n / 4 / 5);
}

TEST(Zipf, SkewPrefersLowIndices) {
  util::Rng rng(29);
  util::ZipfSampler zipf(8, 1.5);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 40000; ++i) counts[zipf.sample(rng)] += 1;
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[3]);
  EXPECT_GT(counts[3], counts[7]);
}

TEST(Zipf, SingletonSupport) {
  util::Rng rng(31);
  util::ZipfSampler zipf(1, 2.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, RejectsInvalidConfig) {
  EXPECT_THROW(util::ZipfSampler(0, 1.0), std::logic_error);
  EXPECT_THROW(util::ZipfSampler(4, -0.5), std::logic_error);
}

// The guide-table lookup must be std::lower_bound over the CDF for every u
// in [0, 1): probe every CDF value and bucket edge with their floating-point
// neighbours (where an off-by-one would show), then a million random draws.
TEST(Zipf, GuideTableMatchesLowerBound) {
  const auto lower_bound_index = [](std::span<const double> cdf, double u) {
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  util::Rng rng(41);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 256u, 1000u}) {
    for (const double alpha : {0.0, 0.5, 1.0, 1.5, 3.0}) {
      const util::ZipfSampler zipf(n, alpha);
      const auto cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      ASSERT_EQ(cdf.back(), 1.0);
      std::vector<double> probes;
      const auto around = [&probes](double x) {
        probes.push_back(std::nextafter(x, 0.0));
        probes.push_back(x);
        probes.push_back(std::nextafter(x, 1.0));
      };
      for (const double c : cdf) around(c);
      for (std::size_t j = 0; j <= n; ++j) {
        around(static_cast<double>(j) / static_cast<double>(n));
      }
      probes.push_back(0.0);
      probes.push_back(std::nextafter(1.0, 0.0));
      for (const double u : probes) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(zipf.index_of(u), lower_bound_index(cdf, u))
            << "n=" << n << " alpha=" << alpha << " u=" << u;
      }
      const int draws = n == 1000 && alpha == 1.0 ? 1'000'000 : 20'000;
      for (int i = 0; i < draws; ++i) {
        const double u = rng.uniform01();
        ASSERT_EQ(zipf.index_of(u), lower_bound_index(cdf, u))
            << "n=" << n << " alpha=" << alpha << " u=" << u;
      }
    }
  }
}

// sample() spends exactly one uniform per call.
TEST(Zipf, SampleConsumesOneUniform) {
  const util::ZipfSampler zipf(37, 1.2);
  util::Rng a(43), b(43);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf.sample(a), zipf.index_of(b.uniform01()));
  }
  EXPECT_EQ(a.next(), b.next());
}

// A generator whose next draw is exactly `x`: xoshiro256** outputs
// rotl(s1 * 5, 7) * 9, so s1 = rotr(x * 9^-1, 7) * 5^-1 (mod 2^64).
util::Rng rng_emitting(std::uint64_t x) {
  const auto inverse = [](std::uint64_t a) {
    std::uint64_t inv = a;  // Newton: each step doubles the correct bits
    for (int i = 0; i < 6; ++i) inv *= 2 - a * inv;
    return inv;
  };
  const std::uint64_t y = x * inverse(9);
  util::Rng::State state;
  state.s[0] = 1;
  state.s[1] = ((y >> 7) | (y << 57)) * inverse(5);
  util::Rng rng;
  rng.restore(state);
  return rng;
}

TEST(Rng, RngEmittingCraftsTheDraw) {
  for (const std::uint64_t x : {0ULL, 1ULL, 0x123456789abcdef0ULL, ~0ULL}) {
    EXPECT_EQ(rng_emitting(x).next(), x);
  }
}

// The integer threshold decides exactly as uniform01() < p: feed both the
// mantissas on either side of ceil(p * 2^53) and the ends of the range.
TEST(Rng, BernoulliSamplerMatchesUniformCompare) {
  const double probs[] = {std::numeric_limits<double>::denorm_min(),
                          0x1.0p-53,
                          0x1.8p-53,
                          1e-9,
                          0.1,
                          1.0 / 3.0,
                          0.5,
                          std::nextafter(0.5, 1.0),
                          0.8,
                          0.9,
                          1.0 - 0x1.0p-53,
                          std::nextafter(1.0, 0.0)};
  constexpr std::uint64_t kMantissas = 1ULL << 53;
  for (const double p : probs) {
    const util::BernoulliSampler sampler(p);
    const auto edge = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    std::vector<std::uint64_t> mantissas = {0, 1, kMantissas - 1};
    for (std::uint64_t d = 0; d < 3; ++d) {
      if (edge >= d) mantissas.push_back(edge - d);
      if (edge + d < kMantissas) mantissas.push_back(edge + d);
    }
    for (const std::uint64_t m : mantissas) {
      // Low 11 bits set: uniform01() discards them, so must the threshold.
      const std::uint64_t draw = (m << 11) | 0x7ff;
      util::Rng a = rng_emitting(draw), b = rng_emitting(draw);
      EXPECT_EQ(sampler.sample(a), b.uniform01() < p)
          << "p=" << p << " m=" << m;
    }
    util::Rng a(47), b(47);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(sampler.sample(a), b.bernoulli(p)) << "p=" << p;
    }
    EXPECT_EQ(a.next(), b.next());
  }
}

// p <= 0 and p >= 1 decide without a draw, like Rng::bernoulli.
TEST(Rng, BernoulliSamplerDegenerateCasesDrawNothing) {
  util::Rng a(53), b(53);
  EXPECT_FALSE(util::BernoulliSampler(0.0).sample(a));
  EXPECT_FALSE(util::BernoulliSampler(-1.0).sample(a));
  EXPECT_TRUE(util::BernoulliSampler(1.0).sample(a));
  EXPECT_TRUE(util::BernoulliSampler(2.0).sample(a));
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, GeometricSamplerMatchesInversionFormula) {
  for (const double p : {1.0 / 2.0, 1.0 / 3.5, 1.0 / 4.0, 1e-3}) {
    const util::GeometricSampler sampler(p);
    util::Rng a(59), b(59);
    for (int i = 0; i < 5000; ++i) {
      const double g =
          std::ceil(std::log(1.0 - b.uniform01()) / std::log1p(-p));
      ASSERT_EQ(sampler.sample(a),
                g < 1.0 ? 1u : static_cast<std::uint64_t>(g))
          << "p=" << p;
    }
  }
  util::Rng a(61), b(61);
  EXPECT_EQ(util::GeometricSampler(1.0).sample(a), 1u);
  EXPECT_EQ(a.next(), b.next());
}

// The inversion formula on the draw's mantissa m, as the sampler evaluated
// it before the guide table: U = 1 - uniform01(), ceil(ln U / ln(1-p)), >= 1.
std::uint64_t geometric_formula(double p, std::uint64_t m) {
  const double u = 1.0 - static_cast<double>(m) * 0x1.0p-53;
  const double g = std::ceil(std::log(u) / std::log1p(-p));
  return g < 1.0 ? 1 : static_cast<std::uint64_t>(g);
}

// Every guide-table bucket must give the formula's variate: probe both ends
// of every bucket and the mantissas just outside them, the closed-form steps
// (where the formula switches value) with their neighbours, then run ten
// million draws in lockstep with the formula.
TEST(GeometricSampler, TableMatchesFormula) {
  constexpr std::uint64_t kMantissas = 1ULL << 53;
  constexpr int kShift = 53 - util::GeometricSampler::kGuideBits;
  constexpr std::uint64_t kBuckets = 1ULL << util::GeometricSampler::kGuideBits;
  for (const double p : {1.0, 0.999, 2.0 / 3.0, 0.5, 0.4, 1.0 / 3.0,
                         1.0 / 3.5, 0.25, 0.1, 0.01, 1e-3, 1e-4}) {
    const util::GeometricSampler sampler(p);
    if (p == 1.0) {
      util::Rng a(67), b(67);
      EXPECT_EQ(sampler.sample(a), 1u);
      EXPECT_EQ(a.next(), b.next()) << "p = 1 must not draw";
      continue;
    }
    std::vector<std::uint64_t> probes;
    const auto around = [&probes](std::uint64_t m) {
      for (std::uint64_t d = 0; d <= 2; ++d) {
        if (m >= d) probes.push_back(m - d);
        if (m + d < kMantissas) probes.push_back(m + d);
      }
    };
    for (std::uint64_t j = 0; j < kBuckets; ++j) {
      around(j << kShift);
      around(((j + 1) << kShift) - 1);
    }
    for (int v = 1; v <= 4096; ++v) {
      const double step = -std::expm1(v * std::log1p(-p)) * 0x1.0p53;
      if (step >= 0x1.0p53) break;
      around(static_cast<std::uint64_t>(step));
    }
    for (const std::uint64_t m : probes) {
      ASSERT_EQ(sampler.value_of(m), geometric_formula(p, m))
          << "p=" << p << " m=" << m;
    }
    util::Rng a(71), b(71);
    for (int i = 0; i < 10'000'000; ++i) {
      const std::uint64_t want = geometric_formula(p, b.next() >> 11);
      ASSERT_EQ(sampler.sample(a), want) << "p=" << p << " draw " << i;
    }
    EXPECT_EQ(a.next(), b.next()) << "one draw per sample, p=" << p;
  }
}

// The class a cumulative double compare picks: the first c with
// u < w_0 + ... + w_c, else the last class.
std::int32_t categorical_formula(const std::vector<double>& weights,
                                 double u) {
  double cum = 0.0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    cum += weights[c];
    if (u < cum) return static_cast<std::int32_t>(c);
  }
  return static_cast<std::int32_t>(weights.size()) - 1;
}

// Integer thresholds decide as the double compare on every mantissa next to
// a partial sum, on mixes with zero weights and with sums a little under and
// over 1, and over a million lockstep draws each.
TEST(CategoricalSampler, MatchesCumulativeCompare) {
  const std::vector<std::vector<double>> mixes = {
      {1.0},
      {0.5, 0.5},
      {0.3, 0.7},
      {0.5, 0.25, 0.25},
      {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0},
      {0.0, 1.0},
      {1.0, 0.0},
      {0.2, 0.0, 0.8},
      {0.0, 0.0, 0.5, 0.0, 0.5, 0.0},
      {0.5, 0.495},
      {0.3, 0.3, 0.395},
      {0.0, 0.995},
      {0.5, 0.505},
      {0.6, 0.405},
      {0.25, 0.25, 0.25, 0.255},
      {0.1, 0.2, 0.3, 0.4}};
  constexpr std::uint64_t kMantissas = 1ULL << 53;
  for (const auto& mix : mixes) {
    const util::CategoricalSampler sampler(mix);
    std::vector<std::uint64_t> probes = {0, 1, kMantissas - 2, kMantissas - 1};
    double cum = 0.0;
    for (const double w : mix) {
      cum += w;
      const double edge = std::min(std::ceil(cum * 0x1.0p53), 0x1.0p53);
      const auto e = static_cast<std::uint64_t>(edge);
      for (std::uint64_t d = 0; d <= 2; ++d) {
        if (e >= d) probes.push_back(e - d);
        if (e + d < kMantissas) probes.push_back(e + d);
      }
    }
    for (const std::uint64_t m : probes) {
      const double u = static_cast<double>(m) * 0x1.0p-53;
      ASSERT_EQ(sampler.index_of(m), categorical_formula(mix, u))
          << "mix size " << mix.size() << " m=" << m;
    }
    util::Rng a(73), b(73);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::int32_t want =
          mix.size() == 1 ? 0 : categorical_formula(mix, b.uniform01());
      ASSERT_EQ(sampler.sample(a), want) << "mix size " << mix.size();
    }
    EXPECT_EQ(a.next(), b.next()) << "one draw per class, none for one class";
  }
}

TEST(Rng, ShuffleIsPermutation) {
  util::Rng rng(37);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

}  // namespace
}  // namespace wdm
