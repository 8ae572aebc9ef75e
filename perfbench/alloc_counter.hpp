// Heap allocation tally for the benchmark binary: the global operator new is
// replaced by a counting one (alloc_counter.cpp), so a layer's allocations
// are the difference of two snapshots taken around a call into it. The
// counters are process-wide, so a fleet's driver threads count too.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Allocations and bytes requested through operator new since start-up.
AllocCount alloc_count() noexcept;

}  // namespace perfbench
