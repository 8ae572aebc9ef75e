// Deterministic, seedable random number generation for simulations.
//
// The simulator needs (1) reproducible streams — the same seed must replay the
// same experiment bit-for-bit across runs and platforms, and (2) cheap
// independent streams for parallel per-output-fiber scheduling. xoshiro256**
// (Blackman & Vigna) with splitmix64 seeding provides both; `split()` derives a
// statistically independent child stream, so each output fiber / traffic source
// can own its own generator without locking.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace wdm::util {

/// splitmix64 step: used for seeding and for deriving child streams.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Seed of an independent *labeled* substream of `master_seed`. Unlike
/// sequential `seeder.next()` draws, labeled substreams are position-free:
/// adding or removing one consumer (e.g. enabling fault injection) cannot
/// shift the seeds of the others, so the traffic and scheduling streams of a
/// given master seed replay bit-for-bit with faults on or off.
std::uint64_t derive_stream_seed(std::uint64_t master_seed,
                                 std::uint64_t label) noexcept;

/// xoshiro256** pseudo-random generator. Satisfies the essentials of
/// UniformRandomBitGenerator so it can also feed <random> adaptors.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next 64 uniformly random bits.
  std::uint64_t operator()() noexcept { return next(); }
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Derives an independent child generator (counter-based splitting).
  Rng split() noexcept;

  /// Raw generator state for checkpoint/replay: the four xoshiro words plus
  /// the split counter. restore() resumes the stream at the exact position
  /// state() captured, so a checkpointed simulation replays bit-for-bit.
  struct State {
    std::uint64_t s[4] = {};
    std::uint64_t split_counter = 0;
  };
  State state() const noexcept;
  void restore(const State& state) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform in [0, n). Requires n > 0. Unbiased (Lemire rejection).
  std::uint64_t uniform_below(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1): the top 53 bits of a draw, m * 2^-53.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Fisher–Yates shuffle. The draw sequence depends only on the length, so
  /// shuffling a vector or a span of the same size replays identically.
  template <typename T>
  void shuffle(std::span<T> v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    shuffle(std::span<T>(v));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int s) noexcept {
    return (x << s) | (x >> (64 - s));
  }

  std::uint64_t s_[4];
  std::uint64_t split_counter_ = 0;
};

/// Bernoulli(p) for a fixed p, as an integer threshold on the 53 bits
/// uniform01() is made of. With u = m * 2^-53, u < p holds exactly when
/// m < p * 2^53 (scaling by a power of two is exact), i.e. when
/// m < ceil(p * 2^53) since m is an integer. So sample() returns what
/// Rng::bernoulli(p) returns, from the same single draw — and, like it,
/// draws nothing when p <= 0 or p >= 1.
class BernoulliSampler {
 public:
  explicit BernoulliSampler(double p) noexcept;

  bool sample(Rng& rng) const noexcept {
    return draws_ ? (rng.next() >> 11) < threshold_ : threshold_ != 0;
  }

 private:
  std::uint64_t threshold_;  // ceil(p * 2^53); 0 / 1 for the drawless cases
  bool draws_;
};

/// Geometric(p) on {1, 2, ...} (mean 1/p) — e.g. the number of slots a
/// connection holds — by inversion of one draw: with m = next() >> 11 (the
/// 53 bits uniform01() is made of) and U = 1 - m * 2^-53 in (0, 1], the
/// variate is ceil(ln(U) / ln(1-p)), at least 1, with ln(1-p) computed once
/// per sampler (the division is kept: a multiply by its reciprocal would
/// round differently). p == 1 consumes no draw. Requires 0 < p <= 1.
///
/// The formula is nondecreasing in m and steps from j to j+1 near
/// m_j = (1 - (1-p)^j) * 2^53. A guide table over the top kGuideBits bits of
/// m holds the variate of every bucket that lies clear of all steps by a
/// guard band far wider than the formula's rounding (a few units of m); a
/// bucket that straddles a step, or lies in the tail where the steps come
/// closer together than a bucket, holds 0 and evaluates the formula on the
/// same m. So sample() returns exactly the formula's variate from the same
/// single draw. The formula's share of draws is 1.0% at p = 1/2, 2.9% at
/// p = 0.1, and 100% from p = 1/2048 down (the first step is narrower than
/// a bucket).
class GeometricSampler {
 public:
  static constexpr int kGuideBits = 11;

  explicit GeometricSampler(double p) noexcept;

  std::uint64_t sample(Rng& rng) const noexcept {
    return draws_ ? value_of(rng.next() >> 11) : 1;
  }

  /// The variate for mantissa m in [0, 2^53).
  std::uint64_t value_of(std::uint64_t m) const noexcept {
    const std::uint8_t v = guide_[m >> (53 - kGuideBits)];
    return v != 0 ? v : formula(m);
  }

 private:
  std::uint64_t formula(std::uint64_t m) const noexcept;

  double log1m_p_;  // std::log1p(-p)
  bool draws_;      // p < 1
  // Variate per bucket of m, 0 = evaluate the formula (a straddling or tail
  // bucket, or a variate above 255). Held inline: no allocation to touch.
  std::array<std::uint8_t, std::size_t{1} << kGuideBits> guide_{};
};

/// Categorical draw over classes 0..n-1 with the given weights, deciding as
/// the cumulative compare "the first c with uniform01() < w_0 + ... + w_c,
/// else n-1" does, with the partial sums accumulated in the same double
/// order. As for BernoulliSampler, u < cum_c exactly when m < ceil(cum_c *
/// 2^53) for the draw's mantissa m, and the thresholds are nondecreasing, so
/// the class is the count of the first n-1 thresholds at or below m: one
/// draw, no data-dependent branch. A single class draws nothing.
class CategoricalSampler {
 public:
  explicit CategoricalSampler(std::span<const double> weights);

  std::int32_t sample(Rng& rng) const noexcept {
    return thresholds_.empty() ? 0 : index_of(rng.next() >> 11);
  }

  /// The class for mantissa m in [0, 2^53).
  std::int32_t index_of(std::uint64_t m) const noexcept {
    std::int32_t c = 0;
    for (const std::uint64_t t : thresholds_) c += t <= m ? 1 : 0;
    return c;
  }

 private:
  std::vector<std::uint64_t> thresholds_;  // ceil(cum_c * 2^53), c < n-1
};

/// Zipf(α) sampler over {0, ..., n-1} with precomputed inverse CDF; used for
/// hotspot destination traffic. α = 0 degenerates to the uniform distribution.
///
/// The inverse CDF is a guide table (Chen & Asau): bucket j of [0, 1) holds
/// the first index whose CDF value falls in bucket j or later, under the same
/// floating-point bucket map index_of() applies to u. That map is monotone,
/// so every index before guide_[j] has cdf < u for any u in bucket j: the
/// entry is a lower bound of the answer, and a short forward walk finishes
/// the search. One uniform per sample, O(1) expected work.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  /// One uniform01() draw mapped through index_of().
  std::size_t sample(Rng& rng) const noexcept {
    return index_of(rng.uniform01());
  }

  /// The smallest i with cdf[i] >= u, for u in [0, 1) — exactly
  /// std::lower_bound over cdf().
  std::size_t index_of(double u) const noexcept {
    std::size_t i = guide_[bucket(u)];
    while (cdf_[i] < u) ++i;
    return i;
  }

  std::size_t size() const noexcept { return cdf_.size(); }
  double alpha() const noexcept { return alpha_; }
  std::span<const double> cdf() const noexcept { return cdf_; }

 private:
  std::size_t bucket(double x) const noexcept {
    const auto j = static_cast<std::size_t>(x * n_);
    return j < guide_.size() ? j : guide_.size() - 1;
  }

  std::vector<double> cdf_;  // cdf_[i] = P(X <= i); cdf_.back() == 1
  std::vector<std::uint32_t> guide_;
  double n_;  // support size as a double, the bucket scale
  double alpha_;
};

}  // namespace wdm::util
