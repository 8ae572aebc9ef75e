// Fault-path overhead — scheduler cost with health masks off vs on.
//
// The health plumbing must be pay-for-what-you-use: a null health pointer
// skips it; an all-healthy mask collapses to the null case after one O(k)
// scan; a degraded fiber pays the word-level fault fold (core/health.hpp)
// and then runs the same word kernel as a healthy one. This harness
// measures all three on the same request stream and records the ratios in
// BENCH_faults.json, so the cost of the fault machinery is tracked.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_io.hpp"
#include "core/distributed.hpp"
#include "core/health.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace wdm;

std::vector<std::vector<core::SlotRequest>> make_slots(std::int32_t n_fibers,
                                                       std::int32_t k,
                                                       std::size_t n_slots,
                                                       double load) {
  util::Rng rng(99);
  std::vector<std::vector<core::SlotRequest>> slots(n_slots);
  std::uint64_t id = 0;
  for (auto& slot : slots) {
    for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
      for (core::Wavelength w = 0; w < k; ++w) {
        if (!rng.bernoulli(load)) continue;
        slot.push_back(core::SlotRequest{
            fib, w,
            static_cast<std::int32_t>(
                rng.uniform_below(static_cast<std::uint64_t>(n_fibers))),
            id++, 1, 0});
      }
    }
  }
  return slots;
}

/// Schedules every slot once and returns slots per second (grants summed
/// into a sink so the work cannot be elided).
double run_scenario(core::DistributedScheduler& sched,
                    const std::vector<std::vector<core::SlotRequest>>& slots,
                    const std::vector<core::HealthMask>* health,
                    std::uint64_t& sink) {
  const util::Stopwatch clock;
  for (const auto& slot : slots) {
    const auto decisions = sched.schedule_slot(slot, nullptr, health);
    for (const auto& d : decisions) sink += d.granted ? 1 : 0;
  }
  return static_cast<double>(slots.size()) / clock.elapsed_s();
}

}  // namespace

int main() {
  const std::int32_t n = 16;
  const std::int32_t k = 16;
  const std::size_t n_slots = 4000;
  const auto scheme = core::ConversionScheme::circular(k, 1, 1);
  const auto slots = make_slots(n, k, n_slots, 0.7);

  core::DistributedScheduler sched(n, scheme, core::Algorithm::kAuto,
                                   core::Arbitration::kFifo, 7);

  // Health scenarios over the same request stream.
  const std::vector<core::HealthMask> all_healthy(
      static_cast<std::size_t>(n), core::HealthMask::healthy(k));
  std::vector<core::HealthMask> degraded = all_healthy;
  util::Rng rng(17);
  for (auto& mask : degraded) {
    for (auto& ch : mask.channels) {
      const double u = rng.uniform01();
      ch = u < 0.05   ? core::ChannelHealth::kConverterFaulted
           : u < 0.10 ? core::ChannelHealth::kChannelFaulted
                      : core::ChannelHealth::kHealthy;
    }
  }
  std::vector<core::HealthMask> fiber_cut = degraded;
  fiber_cut[0].fiber_faulted = true;

  std::uint64_t sink = 0;
  // Warm-up pass, then the measured passes.
  run_scenario(sched, slots, nullptr, sink);
  const double base = run_scenario(sched, slots, nullptr, sink);
  const double healthy = run_scenario(sched, slots, &all_healthy, sink);
  const double faulted = run_scenario(sched, slots, &degraded, sink);
  const double cut = run_scenario(sched, slots, &fiber_cut, sink);

  std::cout << "Fault-path overhead: N = " << n << ", k = " << k
            << ", load 0.7, " << n_slots << " slots/scenario (sink " << sink
            << ")\n\n";
  util::Table table({"scenario", "slots/s", "vs baseline"});
  const auto add = [&](const char* label, double rate) {
    table.add_row({label, util::cell(static_cast<std::int64_t>(rate)),
                   util::cell(base / rate, 3)});
  };
  add("health = null (baseline)", base);
  add("health all-healthy", healthy);
  add("health 10% degraded", faulted);
  add("degraded + 1 fiber cut", cut);
  table.print(std::cout);

  // Same keys the std::fprintf emission used since PR 2, now through the
  // shared writer so scripts/bench_report.py sees one layout everywhere.
  bench::Json root = bench::Json::object();
  root.set("bench", "faults")
      .set("n_fibers", n)
      .set("k", k)
      .set("slots", static_cast<std::uint64_t>(n_slots))
      .set("baseline_slots_per_s", base)
      .set("all_healthy_slots_per_s", healthy)
      .set("degraded_slots_per_s", faulted)
      .set("fiber_cut_slots_per_s", cut)
      .set("all_healthy_overhead", base / healthy)
      .set("degraded_overhead", base / faulted)
      .set("rows", bench::table_json(table));
  bench::write_bench_json("faults", root);
  return 0;
}
