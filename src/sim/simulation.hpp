// Top-level simulation driver: traffic generator + interconnect + metrics.
//
// One call runs a seeded, warm-up-discarding slotted simulation and returns
// the aggregate report the benchmark harnesses print. Everything is
// deterministic in (config, seed).
#pragma once

#include <cstdint>

#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/traffic.hpp"

namespace wdm::sim {

struct SimulationConfig {
  InterconnectConfig interconnect;
  TrafficConfig traffic;
  std::uint64_t slots = 10000;   ///< measured slots (after warm-up)
  std::uint64_t warmup = 1000;   ///< discarded leading slots
  std::uint64_t seed = 1;        ///< master seed (traffic + schedulers)
};

struct SimulationReport {
  std::uint64_t slots = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t losses = 0;
  double offered_load = 0.0;  ///< configured per-channel load
  double loss_probability = 0.0;
  double loss_wilson_low = 0.0;
  double loss_wilson_high = 0.0;
  /// Half-width of the 95% CI from the method of batch means (30 batches):
  /// honest under the slot-to-slot correlation that multi-slot holding
  /// introduces, where the i.i.d. Wilson interval is optimistic.
  double loss_batch_ci = 0.0;
  double throughput_per_channel = 0.0;
  double utilization = 0.0;
  double fiber_fairness = 1.0;
  std::uint64_t preemptions = 0;
  /// Fault accounting (all zero when the config enables no faults).
  std::uint64_t rejected_faulted = 0;   ///< dropped: destination hardware down
  std::uint64_t dropped_faulted = 0;    ///< ongoing connections killed by faults
  std::uint64_t retry_attempts = 0;     ///< retry-queue re-offers
  std::uint64_t retry_successes = 0;    ///< re-offers that ended in a grant
  std::uint64_t fault_failures = 0;     ///< component failures injected
  std::uint64_t fault_repairs = 0;      ///< component repairs applied
  /// Overload-control accounting (all zero when admission and degradation
  /// are disabled in the config).
  std::uint64_t shed_overload = 0;      ///< deliberate overload drops
  std::uint64_t deferred_overload = 0;  ///< arrivals parked in ingress queue
  std::uint64_t ingress_releases = 0;   ///< ingress-queue releases
  std::uint64_t degraded_ports = 0;     ///< port-slots run in O(k) mode
  std::uint64_t degraded_slots = 0;     ///< slots with any degraded port
  double wall_seconds = 0.0;
  /// Per-QoS-class totals (index = priority class); empty for single-class
  /// traffic.
  std::vector<std::uint64_t> class_arrivals;
  std::vector<std::uint64_t> class_losses;
};

/// Runs the configured simulation to completion.
SimulationReport run_simulation(const SimulationConfig& config);

}  // namespace wdm::sim
