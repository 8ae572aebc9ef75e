// The benchmark's named workloads (README.md says why each was chosen).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "sim/interconnect.hpp"
#include "sim/traffic.hpp"

namespace perfbench {

/// The seed whose final digests are pinned in workloads.cpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  std::string_view name;
  /// Fabric shape and control plane. The scheduler seed inside it is
  /// derived from the run's seed, as sim::run_simulation and sim::Fleet do.
  wdm::sim::InterconnectConfig interconnect;
  wdm::sim::TrafficConfig traffic;
  /// 0: one sim::Interconnect driven by the benchmark's own slot loop.
  /// >0: a sim::Fleet of this many shards advanced with Fleet::step().
  std::size_t shards = 0;
  /// Name of the fleet workload whose slot barrier this workload's traced
  /// run measures (the fleet's shards run this workload's fabric), or empty.
  std::string_view barrier_probe;
  /// Slots stepped after set-up before any slot is timed or counted.
  std::uint64_t warmup_slots = 0;
  /// Timed slots per episode; a run repeats whole episodes.
  std::uint64_t measured_slots = 0;
  /// sim::state_digest (single fabric) or Fleet::fleet_digest (fleet) after
  /// warmup_slots + measured_slots slots at kDefaultSeed.
  std::uint64_t pinned_digest = 0;
};

std::span<const Workload> workloads();
/// The workload called `name`, or nullptr.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench
