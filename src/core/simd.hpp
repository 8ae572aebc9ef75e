// Vector-unit detection for the word kernels (docs/ALGORITHMS.md §9).
//
// Every per-slot paper kernel runs on packed 64-bit masks with portable
// std::popcount / std::countr_zero, on every target. AVX2 only speeds up
// byte-row -> bit-row packing (pack_availability): the CPU is checked once
// at runtime, and the portable packing it replaces is bit-identical.
#pragma once

namespace wdm::core {

/// True iff the AVX2 packing path is compiled in and the CPU supports it.
bool avx2_available() noexcept;

/// Human-readable backend for bench/report output: "mask" or "mask+avx2".
const char* simd_backend() noexcept;

}  // namespace wdm::core
