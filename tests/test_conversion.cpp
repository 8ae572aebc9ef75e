// Conversion schemes (Section II.A): adjacency structure for both kinds,
// degree arithmetic, and the conversion-graph export.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/conversion.hpp"
#include "core/wavelength.hpp"

namespace wdm {
namespace {

using core::ConversionKind;
using core::ConversionScheme;

TEST(Conversion, DegreeArithmetic) {
  EXPECT_EQ(ConversionScheme::circular(8, 1, 1).degree(), 3);
  EXPECT_EQ(ConversionScheme::circular(8, 0, 0).degree(), 1);
  EXPECT_EQ(ConversionScheme::circular(8, 3, 4).degree(), 8);
  EXPECT_TRUE(ConversionScheme::circular(8, 3, 4).is_full_range());
  EXPECT_FALSE(ConversionScheme::circular(8, 3, 3).is_full_range());
}

TEST(Conversion, InvalidParametersRejected) {
  EXPECT_THROW(ConversionScheme::circular(0, 0, 0), std::logic_error);
  EXPECT_THROW(ConversionScheme::circular(4, -1, 0), std::logic_error);
  EXPECT_THROW(ConversionScheme::circular(4, 2, 2), std::logic_error);  // d > k
  EXPECT_THROW(ConversionScheme::symmetric(ConversionKind::kCircular, 4, 0),
               std::logic_error);
  EXPECT_THROW(ConversionScheme::symmetric(ConversionKind::kCircular, 4, 5),
               std::logic_error);
}

TEST(Conversion, SymmetricSplitsDegree) {
  const auto odd = ConversionScheme::symmetric(ConversionKind::kCircular, 8, 5);
  EXPECT_EQ(odd.e(), 2);
  EXPECT_EQ(odd.f(), 2);
  const auto even = ConversionScheme::symmetric(ConversionKind::kCircular, 8, 4);
  EXPECT_EQ(even.e(), 2);
  EXPECT_EQ(even.f(), 1);
  EXPECT_EQ(even.degree(), 4);
}

TEST(Conversion, FullRangeReachesEverything) {
  const auto full = ConversionScheme::full_range(5);
  EXPECT_TRUE(full.is_full_range());
  for (core::Wavelength in = 0; in < 5; ++in) {
    for (core::Channel out = 0; out < 5; ++out) {
      EXPECT_TRUE(full.can_convert(in, out));
    }
  }
}

TEST(Conversion, NoneIsIdentityOnly) {
  for (const auto kind : {ConversionKind::kCircular, ConversionKind::kNonCircular}) {
    const auto none = ConversionScheme::none(6, kind);
    EXPECT_EQ(none.degree(), 1);
    for (core::Wavelength in = 0; in < 6; ++in) {
      for (core::Channel out = 0; out < 6; ++out) {
        EXPECT_EQ(none.can_convert(in, out), in == out);
      }
    }
  }
}

TEST(Conversion, CircularWrapsAtBothEnds) {
  const auto s = ConversionScheme::circular(6, 2, 1);
  // λ0: [-2, 1] mod 6 = {4, 5, 0, 1}.
  EXPECT_TRUE(s.can_convert(0, 4));
  EXPECT_TRUE(s.can_convert(0, 5));
  EXPECT_TRUE(s.can_convert(0, 0));
  EXPECT_TRUE(s.can_convert(0, 1));
  EXPECT_FALSE(s.can_convert(0, 2));
  EXPECT_FALSE(s.can_convert(0, 3));
  // λ5: [3, 0] mod 6 = {3, 4, 5, 0}.
  EXPECT_TRUE(s.can_convert(5, 0));
  EXPECT_FALSE(s.can_convert(5, 1));
}

TEST(Conversion, NonCircularClipsAtEnds) {
  const auto s = ConversionScheme::non_circular(6, 2, 1);
  const auto iv0 = s.adjacency_plain(0);
  EXPECT_EQ(iv0, (graph::Interval{0, 1}));  // clipped below
  const auto iv5 = s.adjacency_plain(5);
  EXPECT_EQ(iv5, (graph::Interval{3, 5}));  // clipped above
  const auto iv3 = s.adjacency_plain(3);
  EXPECT_EQ(iv3, (graph::Interval{1, 4}));  // interior: full width d = 4
  EXPECT_THROW(ConversionScheme::circular(6, 1, 1).adjacency_plain(0),
               std::logic_error);
}

TEST(Conversion, AdjacencyListOrderMinusToPlus) {
  const auto s = ConversionScheme::circular(6, 1, 1);
  // Order matters: δ(u) of Section IV.C counts from the minus side.
  EXPECT_EQ(s.adjacency_list(0), (std::vector<core::Channel>{5, 0, 1}));
  EXPECT_EQ(s.adjacency_list(3), (std::vector<core::Channel>{2, 3, 4}));

  const auto nc = ConversionScheme::non_circular(6, 1, 1);
  EXPECT_EQ(nc.adjacency_list(0), (std::vector<core::Channel>{0, 1}));
  EXPECT_EQ(nc.adjacency_list(5), (std::vector<core::Channel>{4, 5}));
}

TEST(Conversion, AdjacencyListMatchesCanConvert) {
  for (const auto kind :
       {ConversionKind::kCircular, ConversionKind::kNonCircular}) {
    for (const std::int32_t e : {0, 1, 3}) {
      for (const std::int32_t f : {0, 2}) {
        const std::int32_t k = 9;
        const auto s = kind == ConversionKind::kCircular
                           ? ConversionScheme::circular(k, e, f)
                           : ConversionScheme::non_circular(k, e, f);
        for (core::Wavelength in = 0; in < k; ++in) {
          const auto list = s.adjacency_list(in);
          std::size_t hits = 0;
          for (core::Channel out = 0; out < k; ++out) {
            if (s.can_convert(in, out)) hits += 1;
          }
          EXPECT_EQ(hits, list.size());
          for (const auto out : list) EXPECT_TRUE(s.can_convert(in, out));
        }
      }
    }
  }
}

TEST(Conversion, ConversionGraphEdgeCount) {
  // Circular: always k*d edges. Non-circular: fewer near the ends.
  EXPECT_EQ(ConversionScheme::circular(10, 2, 1).conversion_graph().n_edges(),
            40u);
  const auto nc = ConversionScheme::non_circular(10, 2, 1);
  std::size_t expected = 0;
  for (core::Wavelength w = 0; w < 10; ++w) {
    expected += static_cast<std::size_t>(nc.adjacency_plain(w).length());
  }
  EXPECT_EQ(nc.conversion_graph().n_edges(), expected);
  EXPECT_LT(expected, 40u);
}

TEST(ModularHelpers, ModAndForwardDistance) {
  EXPECT_EQ(core::mod_k(-1, 6), 5);
  EXPECT_EQ(core::mod_k(-7, 6), 5);
  EXPECT_EQ(core::mod_k(6, 6), 0);
  EXPECT_EQ(core::mod_k(13, 6), 1);
  EXPECT_EQ(core::fwd(4, 1, 6), 3);
  EXPECT_EQ(core::fwd(1, 4, 6), 3);
  EXPECT_EQ(core::fwd(2, 2, 6), 0);
  EXPECT_EQ(core::fwd(0, 5, 6), 5);
}

TEST(Wavelength, ModKMatchesRemainder) {
  // The conditional-wrap fast range (-k, 2k), its edges and the general
  // remainder beyond it, against the plain remainder definition.
  const auto reference = [](std::int64_t x, std::int32_t k) {
    const std::int64_t m = x % k;
    return static_cast<std::int32_t>(m < 0 ? m + k : m);
  };
  for (std::int32_t k = 1; k <= 130; ++k) {
    for (std::int64_t x = -3 * static_cast<std::int64_t>(k);
         x <= 3 * static_cast<std::int64_t>(k); ++x) {
      ASSERT_EQ(core::mod_k(x, k), reference(x, k)) << "x=" << x << " k=" << k;
    }
    using Limits = std::numeric_limits<std::int64_t>;
    for (const std::int64_t x : {Limits::min(), Limits::min() + 1,
                                 Limits::max(), Limits::max() - 1}) {
      ASSERT_EQ(core::mod_k(x, k), reference(x, k)) << "x=" << x << " k=" << k;
    }
  }
  // k > 2^30: the fast range reaches past INT32_MAX, so the wrap must not
  // narrow before it subtracts k.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  for (const std::int64_t x :
       {std::int64_t{1} << 31, (std::int64_t{1} << 32) - 3,
        std::int64_t{kMax}, -std::int64_t{kMax} + 1, std::int64_t{-1}}) {
    ASSERT_EQ(core::mod_k(x, kMax), reference(x, kMax)) << "x=" << x;
    ASSERT_EQ(core::mod_k(x, kMax - 1), reference(x, kMax - 1)) << "x=" << x;
  }
}

}  // namespace
}  // namespace wdm
