// Shared helpers for the test suite: random instances and oracle checks.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/channel_assignment.hpp"
#include "core/conversion.hpp"
#include "core/request.hpp"
#include "core/request_graph.hpp"
#include "graph/hopcroft_karp.hpp"
#include "graph/kuhn.hpp"
#include "util/rng.hpp"

namespace wdm::test {

/// FNV-1a over the little-endian bytes of each value added: the hash the
/// golden decision and digest pins are recorded with.
class Fnv1a {
 public:
  template <typename T>
  void add(T v) {
    auto bits = static_cast<std::uint64_t>(v);
    for (std::size_t b = 0; b < sizeof(T); ++b, bits >>= 8) {
      h_ = (h_ ^ (bits & 0xffu)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Random request vector mimicking a slot of Bernoulli traffic: each of
/// n_fibers * k input channels requests this output fiber with probability p
/// (per-wavelength counts are Binomial(n_fibers, p)).
inline core::RequestVector random_request_vector(util::Rng& rng, std::int32_t k,
                                                 std::int32_t n_fibers,
                                                 double p) {
  core::RequestVector rv(k);
  for (core::Wavelength w = 0; w < k; ++w) {
    for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
      if (rng.bernoulli(p)) rv.add(w);
    }
  }
  return rv;
}

/// Random availability mask; each channel free with probability p_free.
inline std::vector<std::uint8_t> random_mask(util::Rng& rng, std::int32_t k,
                                             double p_free) {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(k));
  for (auto& m : mask) m = rng.bernoulli(p_free) ? 1 : 0;
  return mask;
}

/// Maximum matching size of the request graph, by Hopcroft–Karp.
inline std::int32_t oracle_max_matching(const core::ConversionScheme& scheme,
                                        const core::RequestVector& rv,
                                        std::vector<std::uint8_t> mask = {}) {
  const core::RequestGraph g(scheme, rv, std::move(mask));
  return static_cast<std::int32_t>(graph::hopcroft_karp(g.to_bipartite()).size());
}

/// Asserts that a channel assignment is a feasible schedule: channels only
/// granted when free, conversions legal, and no wavelength over-granted.
inline void expect_valid_assignment(const core::ChannelAssignment& a,
                                    const core::RequestVector& rv,
                                    const core::ConversionScheme& scheme,
                                    std::span<const std::uint8_t> mask = {}) {
  ASSERT_EQ(a.k(), scheme.k());
  std::int32_t granted = 0;
  std::vector<std::int32_t> used(static_cast<std::size_t>(scheme.k()), 0);
  for (core::Channel u = 0; u < scheme.k(); ++u) {
    const core::Wavelength w = a.source[static_cast<std::size_t>(u)];
    if (w == core::kNone) continue;
    granted += 1;
    ASSERT_GE(w, 0);
    ASSERT_LT(w, scheme.k());
    EXPECT_TRUE(scheme.can_convert(w, u))
        << "channel " << u << " granted to inconvertible wavelength " << w;
    if (!mask.empty()) {
      EXPECT_NE(mask[static_cast<std::size_t>(u)], 0)
          << "occupied channel " << u << " was granted";
    }
    used[static_cast<std::size_t>(w)] += 1;
  }
  EXPECT_EQ(granted, a.granted);
  for (core::Wavelength w = 0; w < scheme.k(); ++w) {
    EXPECT_LE(used[static_cast<std::size_t>(w)], rv.count(w))
        << "wavelength " << w << " granted more channels than it has requests";
  }
}

}  // namespace wdm::test
