// Wavelength indices and modular (circular) index arithmetic.
//
// Section II.A of the paper represents adjacency sets of circular symmetric
// conversion as intervals of integers taken "mod k". All circular reasoning
// in this library is phrased as *forward distances* mod k compared as plain
// integers, which sidesteps the ambiguity of empty vs. wrapped intervals that
// naive [x, y]-mod-k notation has.
#pragma once

#include <cstdint>

namespace wdm::core {

/// Index of a wavelength (input side) or wavelength channel (output side),
/// in [0, k).
using Wavelength = std::int32_t;
using Channel = std::int32_t;

/// Sentinel: "no wavelength / channel".
inline constexpr std::int32_t kNone = -1;

/// Mathematical mod: result in [0, k) for any x. k must be positive.
/// Every kernel call site passes x in (-k, 2k), where one conditional wrap
/// replaces the 64-bit division; wider x takes the general remainder.
constexpr std::int32_t mod_k(std::int64_t x, std::int32_t k) noexcept {
  if (x > -static_cast<std::int64_t>(k) &&
      x < 2 * static_cast<std::int64_t>(k)) {
    const std::int64_t m = x < 0 ? x + k : x;
    return static_cast<std::int32_t>(m >= k ? m - k : m);
  }
  const auto m = static_cast<std::int32_t>(x % k);
  return m < 0 ? m + k : m;
}

/// Forward (clockwise) distance from `from` to `to` on the k-cycle: the
/// number of +1 steps needed, in [0, k).
constexpr std::int32_t fwd(std::int32_t from, std::int32_t to,
                           std::int32_t k) noexcept {
  return mod_k(static_cast<std::int64_t>(to) - from, k);
}

}  // namespace wdm::core
