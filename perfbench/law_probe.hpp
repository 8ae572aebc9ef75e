// Paper-law probe: per-port OutputPortScheduler::schedule_into time for
// First Available (O(k), Theorem 1) and Break-and-First-Available (O(dk),
// Theorem 2) across k at fixed N and across N at fixed k, beside the clock
// cycles the src/hw register-transfer model counts for the same instances.
#pragma once

#include <cstdint>
#include <vector>

#include "slot_loop.hpp"

namespace perfbench {

struct LawRow {
  const char* algorithm = "";  ///< "FA" or "BFA"
  std::int32_t n = 0;
  std::int32_t k = 0;
  std::int32_t d = 0;
  double ns_per_port = 0.0;    ///< median over timed passes
  double hw_cycles = 0.0;      ///< HwPortScheduler cycles per port (serial)
};

struct LawProbe {
  std::vector<LawRow> rows;
  double fa_ns_per_k = 0.0;    ///< least-squares slope of FA ns over k
  double bfa_ns_per_dk = 0.0;  ///< least-squares slope of BFA ns over d*k
  double n_flatness = 0.0;     ///< BFA ns per port, N=256 over N=16
  double hw_cycles_fa = 0.0;   ///< at the healthy-bfa shape, k = 16
  double hw_cycles_bfa = 0.0;
};

/// Runs every probe configuration within the time left until `deadline_ns`.
/// A port whose hardware-model grant count differs from the kernel's, or a
/// decision other than granted / no-channel, fails a gate operation.
LawProbe run_law_probe(std::uint64_t seed, std::uint64_t deadline_ns,
                       Gate& gate);

}  // namespace perfbench
