// Structure-of-arrays slot batch (docs/ALGORITHMS.md §9).
//
// The distributed scheduler's partition stage is a counting sort of the
// slot's requests into N destination subsets. It scatters these parallel
// columns rather than 24-byte Request structs, because the per-port hot path
// consumes exactly one of them (the wavelength — ids never reach the
// matching kernels, and the remaining fields are only touched by
// per-request validation, which reads its column once). Column entries are
// CSR-ordered by output fiber (`fiber_offsets`), arrival order preserved
// within a fiber.
#pragma once

#include <cstdint>
#include <vector>

namespace wdm::core {

struct SlotBatchSoA {
  /// CSR offsets over output fibers, size N+1.
  std::vector<std::uint32_t> fiber_offsets;
  /// Original request index of each partitioned entry (results scatter).
  std::vector<std::uint32_t> origin;
  std::vector<std::int32_t> wavelength;
  std::vector<std::int32_t> input_fiber;
  std::vector<std::int32_t> duration;

  void resize_entries(std::size_t n) {
    origin.resize(n);
    wavelength.resize(n);
    input_fiber.resize(n);
    duration.resize(n);
  }
};

}  // namespace wdm::core
