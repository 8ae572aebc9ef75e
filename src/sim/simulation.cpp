#include "sim/simulation.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace wdm::sim {

SimulationReport run_simulation(const SimulationConfig& config) {
  WDM_CHECK_MSG(config.slots > 0, "simulation needs at least one measured slot");

  util::Rng seeder(config.seed);
  InterconnectConfig icfg = config.interconnect;
  icfg.seed = seeder.next();
  Interconnect interconnect(icfg);
  TrafficGenerator traffic(icfg.n_fibers, icfg.scheme.k(), config.traffic,
                           seeder.next());
  MetricsCollector metrics(icfg.n_fibers, icfg.scheme.k());

  const util::Stopwatch clock;
  // Method of batch means: 30 contiguous batches of measured slots give a
  // correlation-robust CI on the loss probability.
  constexpr std::uint64_t kBatches = 30;
  const std::uint64_t batch_len = std::max<std::uint64_t>(1, config.slots / kBatches);
  util::RunningStats batch_means;
  std::uint64_t batch_arrivals = 0;
  std::uint64_t batch_losses = 0;
  std::uint64_t in_batch = 0;

  for (std::uint64_t slot = 0; slot < config.warmup + config.slots; ++slot) {
    const auto arrivals = traffic.next_slot(interconnect.input_channel_busy());
    const SlotStats stats = interconnect.step(arrivals);
    if (slot < config.warmup) continue;
    metrics.record_slot(stats);
    batch_arrivals += stats.arrivals;
    batch_losses += stats.rejected;
    if (++in_batch == batch_len) {
      if (batch_arrivals > 0) {
        batch_means.add(static_cast<double>(batch_losses) /
                        static_cast<double>(batch_arrivals));
      }
      batch_arrivals = batch_losses = 0;
      in_batch = 0;
    }
    for (std::int32_t fiber = 0; fiber < icfg.n_fibers; ++fiber) {
      metrics.record_fiber_grants(
          fiber,
          interconnect.last_fiber_grants()[static_cast<std::size_t>(fiber)]);
    }
  }

  SimulationReport report;
  report.slots = metrics.slots();
  report.arrivals = metrics.arrivals();
  report.losses = metrics.losses();
  report.offered_load = config.traffic.load;
  report.loss_probability = metrics.loss_probability();
  report.loss_wilson_low = metrics.loss_wilson_low();
  report.loss_wilson_high = metrics.loss_wilson_high();
  report.loss_batch_ci = batch_means.ci95_halfwidth();
  report.throughput_per_channel = metrics.throughput_per_channel();
  report.utilization = metrics.utilization();
  report.fiber_fairness = metrics.fiber_fairness();
  report.preemptions = metrics.preempted();
  report.rejected_faulted = metrics.rejected_faulted();
  report.dropped_faulted = metrics.dropped_faulted();
  report.retry_attempts = metrics.retry_attempts();
  report.retry_successes = metrics.retry_successes();
  report.shed_overload = metrics.shed_overload();
  report.deferred_overload = metrics.deferred_overload();
  report.ingress_releases = metrics.ingress_releases();
  report.degraded_ports = metrics.degraded_ports();
  report.degraded_slots = metrics.degraded_slots();
  if (const auto* injector = interconnect.fault_injector()) {
    report.fault_failures = injector->failures_injected();
    report.fault_repairs = injector->repairs_applied();
  }
  report.wall_seconds = clock.elapsed_s();
  if (metrics.arrivals_per_class().size() > 1) {
    // Per-class vectors are only meaningful for multi-class traffic.
    report.class_arrivals = metrics.arrivals_per_class();
    const auto& granted_pc = metrics.granted_per_class();
    report.class_losses.resize(report.class_arrivals.size(), 0);
    for (std::size_t c = 0; c < report.class_arrivals.size(); ++c) {
      const std::uint64_t granted =
          c < granted_pc.size() ? granted_pc[c] : 0;
      report.class_losses[c] = report.class_arrivals[c] - granted;
    }
  }
  return report;
}

}  // namespace wdm::sim
