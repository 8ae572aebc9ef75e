// Packed 64-bit wavelength/channel masks — the word layout behind the
// masked slot kernels (docs/ALGORITHMS.md §9).
//
// A size-k 0/1 byte row (1 = free, the AvailabilityView convention) packs
// into ceil(k/64) little-endian words: bit i of word i/64 is channel i, and
// every bit at position >= k is ZERO. That tail invariant is what lets the
// kernels scan words with std::countr_zero and never step outside [0, k).
//
// The masked sweeps consume two masks per port call: the availability row
// (which channels are free) and the nonempty-wavelength mask (which
// wavelengths have a pending request). Both are plain data — packing is the
// only operation with a vector-unit fast path (AVX2 byte compare + movemask,
// runtime-dispatched; see wave_mask.cpp), everything else is portable <bit>.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace wdm::core {

/// Words needed for a k-bit mask.
constexpr std::size_t mask_words(std::int32_t k) noexcept {
  return (static_cast<std::size_t>(k) + 63) / 64;
}

/// Bit i of the mask (i in [0, k)).
inline bool mask_test(const std::uint64_t* words, std::int32_t i) noexcept {
  return (words[static_cast<std::size_t>(i) >> 6] >>
          (static_cast<std::uint32_t>(i) & 63)) &
         1u;
}

inline void mask_set(std::uint64_t* words, std::int32_t i) noexcept {
  words[static_cast<std::size_t>(i) >> 6] |=
      std::uint64_t{1} << (static_cast<std::uint32_t>(i) & 63);
}

inline void mask_clear(std::uint64_t* words, std::int32_t i) noexcept {
  words[static_cast<std::size_t>(i) >> 6] &=
      ~(std::uint64_t{1} << (static_cast<std::uint32_t>(i) & 63));
}

/// All k bits set, tail bits zero.
inline void mask_fill(std::uint64_t* words, std::int32_t k) noexcept {
  const std::size_t nw = mask_words(k);
  for (std::size_t i = 0; i < nw; ++i) words[i] = ~std::uint64_t{0};
  const std::uint32_t tail = static_cast<std::uint32_t>(k) & 63;
  if (tail != 0) words[nw - 1] = ~std::uint64_t{0} >> (64 - tail);
}

inline void mask_zero(std::uint64_t* words, std::int32_t k) noexcept {
  for (std::size_t i = 0; i < mask_words(k); ++i) words[i] = 0;
}

/// First set bit at index >= `from`, or `bound` if none below `bound`.
/// The scan reads whole words, so bits at positions >= bound may be set —
/// they are clamped, never returned.
inline std::int32_t find_next_set(const std::uint64_t* words,
                                  std::int32_t bound,
                                  std::int32_t from) noexcept {
  if (from >= bound) return bound;
  std::size_t wi = static_cast<std::size_t>(from) >> 6;
  const std::size_t nw = mask_words(bound);
  std::uint64_t cur =
      words[wi] & (~std::uint64_t{0} << (static_cast<std::uint32_t>(from) & 63));
  while (cur == 0) {
    if (++wi == nw) return bound;
    cur = words[wi];
  }
  const std::int32_t idx = static_cast<std::int32_t>(
      (wi << 6) + static_cast<std::size_t>(std::countr_zero(cur)));
  return idx < bound ? idx : bound;
}

/// Rotates the k-bit mask `in` down by r, 0 <= r < k, into the distinct
/// array `out`: bit i of `out` is bit (i + r) mod k of `in`. It is
/// (in >> r) | (in << (k - r)) on the k-bit value, word by word, for any k;
/// each shift by 64 - b is split in two to stay defined at b = 0.
inline void mask_rotate(const std::uint64_t* in, std::int32_t k,
                        std::int32_t r, std::uint64_t* out) noexcept {
  const auto nw = static_cast<std::ptrdiff_t>(mask_words(k));
  const auto at = [in, nw](std::ptrdiff_t i) {
    return i >= 0 && i < nw ? in[i] : std::uint64_t{0};
  };
  const std::ptrdiff_t dq = r >> 6, uq = (k - r) >> 6;
  const auto db = static_cast<std::uint32_t>(r) & 63;
  const auto ub = static_cast<std::uint32_t>(k - r) & 63;
  for (std::ptrdiff_t i = 0; i < nw; ++i) {
    out[i] = (at(i + dq) >> db) | ((at(i + dq + 1) << 1) << (63 - db)) |
             (at(i - uq) << ub) | ((at(i - uq - 1) >> 1) >> (63 - ub));
  }
  const std::uint32_t tail = static_cast<std::uint32_t>(k) & 63;
  if (tail != 0) out[nw - 1] &= ~std::uint64_t{0} >> (64 - tail);
}

/// Number of set bits in the k-bit mask (tail bits are zero by invariant).
inline std::int32_t mask_popcount(const std::uint64_t* words,
                                  std::int32_t k) noexcept {
  std::int32_t n = 0;
  for (std::size_t i = 0; i < mask_words(k); ++i) {
    n += std::popcount(words[i]);
  }
  return n;
}

/// Packs a size-k 0/1 byte row (1 = free) into `words` (mask_words(k) of
/// them), zeroing the tail. An empty `bytes` span means all free, matching
/// the empty-availability convention of the kernels. Uses the AVX2 byte
/// compare when the CPU has it; bit-identical portable packing otherwise.
void pack_availability(std::span<const std::uint8_t> bytes, std::int32_t k,
                       std::uint64_t* words) noexcept;

/// Packs a request-vector count array into the nonempty-wavelength mask:
/// bit w set iff counts[w] > 0.
inline void pack_counts(std::span<const std::int32_t> counts, std::int32_t k,
                        std::uint64_t* words) noexcept {
  mask_zero(words, k);
  for (std::int32_t w = 0; w < k; ++w) {
    if (counts[static_cast<std::size_t>(w)] > 0) mask_set(words, w);
  }
}

#ifdef WDM_HAVE_AVX2_TU
/// AVX2 packing back-end (wave_mask_avx2.cpp, compiled with -mavx2). Only
/// called after a runtime cpu-support check; same output as the portable
/// loop, byte for byte.
void pack_availability_avx2(const std::uint8_t* bytes, std::int32_t k,
                            std::uint64_t* words) noexcept;
#endif

}  // namespace wdm::core
