#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace wdm::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_stream_seed(std::uint64_t master_seed,
                                 std::uint64_t label) noexcept {
  // Two splitmix64 rounds over (seed, label): the label lands in a distinct
  // 2^64-strided region of the splitmix sequence, so distinct labels give
  // decorrelated seeds even for adjacent master seeds.
  std::uint64_t state = master_seed;
  std::uint64_t mixed = splitmix64(state) ^ (0xd1342543de82ef95ULL * (label + 1));
  return splitmix64(mixed);
}

namespace {
// GCC/Clang 128-bit type, shielded from -Wpedantic.
__extension__ using u128 = unsigned __int128;
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 never produces
  // four consecutive zeros, but guard anyway for defence in depth.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

Rng::State Rng::state() const noexcept {
  State out;
  for (int i = 0; i < 4; ++i) out.s[i] = s_[i];
  out.split_counter = split_counter_;
  return out;
}

void Rng::restore(const State& state) noexcept {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  split_counter_ = state.split_counter;
  // Re-apply the constructor's all-zero guard: a hand-rolled state must not
  // be able to park the generator on the xoshiro fixed point.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

Rng Rng::split() noexcept {
  // Mix a fresh draw with a per-parent counter so repeated splits yield
  // distinct, decorrelated children even if the parent state were reused.
  std::uint64_t seed = next() ^ (0xd1342543de82ef95ULL * ++split_counter_);
  return Rng{splitmix64(seed)};
}

std::uint64_t Rng::uniform_below(std::uint64_t n) noexcept {
  WDM_DCHECK(n > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  u128 m = static_cast<u128>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<u128>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  WDM_DCHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

BernoulliSampler::BernoulliSampler(double p) noexcept
    : threshold_(p <= 0.0   ? 0
                 : p >= 1.0 ? 1
                            : static_cast<std::uint64_t>(
                                  std::ceil(p * 0x1.0p53))),
      draws_(p > 0.0 && p < 1.0) {}

GeometricSampler::GeometricSampler(double p) noexcept
    : log1m_p_(std::log1p(-p)), draws_(p < 1.0) {
  WDM_DCHECK(p > 0.0 && p <= 1.0);
  if (!draws_) return;
  constexpr std::size_t kBuckets = std::size_t{1} << kGuideBits;
  constexpr double kWidth = 0x1.0p53 / static_cast<double>(kBuckets);
  // The formula's switch from v to v+1 lies within a few units of m of the
  // closed-form step m_v (log, division and expm1 each round by an ulp or
  // so); buckets this close to a step are left to the formula.
  constexpr double kGuard = 0x1.0p20;
  // Variate v covers m in (m_{v-1}, m_v], with m_0 = 0 closing v = 1 below.
  double prev_step = 0.0;
  for (std::uint64_t v = 1; v <= UINT8_MAX; ++v) {
    const double step =
        -std::expm1(static_cast<double>(v) * log1m_p_) * 0x1.0p53;
    const double lo = v == 1 ? 0.0 : prev_step + kGuard;
    const double hi = step - kGuard;
    // Buckets [j*W, (j+1)*W - 1] wholly inside [lo, hi].
    const auto first = static_cast<std::int64_t>(std::ceil(lo / kWidth));
    const auto last = std::min(
        static_cast<std::int64_t>(std::floor((hi + 1.0) / kWidth)) - 1,
        static_cast<std::int64_t>(kBuckets) - 1);
    if (first <= last) {
      std::fill(guide_.begin() + first, guide_.begin() + last + 1,
                static_cast<std::uint8_t>(v));
    }
    // The steps only come closer from here on: once they are narrower than
    // a bucket, every later bucket straddles one.
    if (step - prev_step < kWidth) break;
    prev_step = step;
  }
}

std::uint64_t GeometricSampler::formula(std::uint64_t m) const noexcept {
  const double u = 1.0 - static_cast<double>(m) * 0x1.0p-53;  // in (0, 1]
  const double g = std::ceil(std::log(u) / log1m_p_);
  return g < 1.0 ? 1 : static_cast<std::uint64_t>(g);
}

CategoricalSampler::CategoricalSampler(std::span<const double> weights) {
  double cum = 0.0;
  for (std::size_t c = 0; c + 1 < weights.size(); ++c) {
    cum += weights[c];
    // Clamped to [0, 2^53], where the compare is already decided for all m.
    const double t = std::ceil(cum * 0x1.0p53);
    thresholds_.push_back(t <= 0.0        ? 0
                          : t >= 0x1.0p53 ? std::uint64_t{1} << 53
                                          : static_cast<std::uint64_t>(t));
  }
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
    : n_(static_cast<double>(n)), alpha_(alpha) {
  WDM_CHECK_MSG(n > 0, "ZipfSampler needs a nonempty support");
  WDM_CHECK_MSG(n <= UINT32_MAX, "ZipfSampler support exceeds the guide table");
  WDM_CHECK_MSG(alpha >= 0.0, "Zipf exponent must be nonnegative");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  // Normalise (the last entry is pinned to 1 against accumulated rounding)
  // and fill the guide table in the same pass: guide_[j] is the first i with
  // bucket(cdf_[i]) >= j. bucket(1.0) is the last bucket, so every entry is
  // written.
  guide_.resize(n);
  std::size_t filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cdf_[i] = i + 1 == n ? 1.0 : cdf_[i] / total;
    for (const std::size_t b = bucket(cdf_[i]); filled <= b; ++filled) {
      guide_[filled] = static_cast<std::uint32_t>(i);
    }
  }
}

}  // namespace wdm::util
