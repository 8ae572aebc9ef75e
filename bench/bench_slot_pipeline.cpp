// Slot-pipeline throughput and allocator traffic (the perf-regression
// baseline for the zero-allocation hot path).
//
// Drives Interconnect::step end-to-end — aging, availability update,
// per-fiber scheduling, occupancy — over pre-generated arrival streams and
// reports slots/sec plus heap allocations and bytes per slot, across
// N ∈ {16, 64, 256}, k ∈ {8, 16, 32}, circular and non-circular conversion.
// A second measurement isolates the scheduler + availability-update path
// (DistributedScheduler against the flat availability plane), the part the
// zero-allocation contract covers (tests/test_zero_alloc.cpp enforces it).
//
// A third measurement re-runs the full pipeline with a trace recorder
// attached (--trace-detail, default "slots") so the telemetry tax is itself
// a tracked number: "traced slots/s" should sit within a few percent of the
// untraced column at slot granularity, and the untraced column is the one
// bench_report.py regresses against.
//
// WDM_BENCH_SMOKE=1 shrinks the matrix and slot counts for CI smoke runs.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <span>
#include <vector>

#include "bench_io.hpp"
#include "core/distributed.hpp"
#include "core/simd.hpp"
#include "obs/telemetry.hpp"
#include "sim/interconnect.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: global new/delete with per-thread-safe atomic tallies.
// Only this binary is instrumented; the counters cost one relaxed fetch_add
// per allocation, negligible next to the allocation itself.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace wdm;

struct AllocSnapshot {
  std::uint64_t allocs;
  std::uint64_t bytes;
  static AllocSnapshot take() {
    return {g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
  }
};

std::vector<std::vector<core::SlotRequest>> make_slots(std::int32_t n_fibers,
                                                       std::int32_t k,
                                                       std::size_t n_slots,
                                                       double load) {
  util::Rng rng(42);
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
            id++, 1 + static_cast<std::int32_t>(rng.uniform_below(3)), 0});
      }
    }
  }
  return slots;
}

struct Measurement {
  double slots_per_s = 0.0;
  double allocs_per_slot = 0.0;
  double bytes_per_slot = 0.0;
  std::uint64_t grants = 0;  ///< sink: keeps the work observable
};

/// Full interconnect pipeline: one warm-up sweep, then a measured sweep over
/// the same slot stream. When `recorder` is non-null it is attached for the
/// measured sweep, so the measurement includes the telemetry warm path.
Measurement run_interconnect(std::int32_t n, std::int32_t k, bool circular,
                             const std::vector<std::vector<core::SlotRequest>>& slots,
                             obs::TraceRecorder* recorder = nullptr) {
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n;
  cfg.scheme = circular ? core::ConversionScheme::circular(k, 1, 1)
                        : core::ConversionScheme::non_circular(k, 1, 1);
  cfg.arbitration = core::Arbitration::kFifo;
  cfg.seed = 5;
  sim::Interconnect ic(cfg);

  Measurement m;
  for (const auto& slot : slots) m.grants += ic.step(slot).granted;  // warm-up
  ic.set_telemetry(recorder);

  // Best-of-3 sweeps: on a shared host a single sweep absorbs whatever the
  // neighbours were doing; the fastest sweep is the closest estimate of the
  // pipeline's actual cost. Allocation counters cover the first sweep only
  // (they are deterministic per sweep, timing is not).
  const AllocSnapshot before = AllocSnapshot::take();
  double elapsed = 0.0;
  AllocSnapshot after = before;
  for (int rep = 0; rep < 3; ++rep) {
    const util::Stopwatch clock;
    for (const auto& slot : slots) m.grants += ic.step(slot).granted;
    const double sweep_s = clock.elapsed_s();
    if (rep == 0) {
      elapsed = sweep_s;
      after = AllocSnapshot::take();
    } else {
      elapsed = std::min(elapsed, sweep_s);
    }
  }

  const double n_slots = static_cast<double>(slots.size());
  m.slots_per_s = n_slots / elapsed;
  m.allocs_per_slot = static_cast<double>(after.allocs - before.allocs) / n_slots;
  m.bytes_per_slot = static_cast<double>(after.bytes - before.bytes) / n_slots;
  return m;
}

/// Scheduler + availability-update path only: the zero-allocation contract.
/// Mirrors what the interconnect does per slot — schedule against the flat
/// plane, occupy granted channels, free them again — without the SlotStats
/// accounting that the full pipeline adds on top.
Measurement run_scheduler_path(
    std::int32_t n, std::int32_t k, bool circular,
    const std::vector<std::vector<core::SlotRequest>>& slots) {
  const auto scheme = circular ? core::ConversionScheme::circular(k, 1, 1)
                               : core::ConversionScheme::non_circular(k, 1, 1);
  core::DistributedScheduler sched(n, scheme, core::Algorithm::kAuto,
                                   core::Arbitration::kFifo, 5);
  std::vector<std::uint8_t> plane(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k), 1);
  std::vector<core::PortDecision> decisions;
  decisions.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  const core::AvailabilityView view(plane.data(), n, k);

  Measurement m;
  const auto sweep = [&](bool measured) {
    for (const auto& slot : slots) {
      decisions.resize(slot.size());
      sched.schedule_slot_into(slot, view, nullptr, nullptr, decisions);
      // Occupy and release within the slot: exercises the plane update
      // without letting the fabric saturate.
      for (std::size_t i = 0; i < slot.size(); ++i) {
        if (!decisions[i].granted) continue;
        if (measured) m.grants += 1;
        plane[static_cast<std::size_t>(slot[i].output_fiber) *
                  static_cast<std::size_t>(k) +
              static_cast<std::size_t>(decisions[i].channel)] = 0;
      }
      for (std::size_t i = 0; i < slot.size(); ++i) {
        if (!decisions[i].granted) continue;
        plane[static_cast<std::size_t>(slot[i].output_fiber) *
                  static_cast<std::size_t>(k) +
              static_cast<std::size_t>(decisions[i].channel)] = 1;
      }
    }
  };

  sweep(false);  // warm-up: scratch reaches its high-water capacity
  const AllocSnapshot before = AllocSnapshot::take();
  double elapsed = 0.0;
  AllocSnapshot after = before;
  for (int rep = 0; rep < 3; ++rep) {
    const util::Stopwatch clock;
    sweep(rep == 0);
    const double sweep_s = clock.elapsed_s();
    if (rep == 0) {
      elapsed = sweep_s;
      after = AllocSnapshot::take();
    } else {
      elapsed = std::min(elapsed, sweep_s);
    }
  }

  const double n_slots = static_cast<double>(slots.size());
  m.slots_per_s = n_slots / elapsed;
  m.allocs_per_slot = static_cast<double>(after.allocs - before.allocs) / n_slots;
  m.bytes_per_slot = static_cast<double>(after.bytes - before.bytes) / n_slots;
  return m;
}

std::size_t slots_for(std::int32_t n, std::int32_t k, bool smoke) {
  if (smoke) return 200;
  const std::size_t budget = 2'000'000;
  const std::size_t per_slot =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  return std::min<std::size_t>(4000, std::max<std::size_t>(200, budget / per_slot));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_slot_pipeline",
                "slot-pipeline throughput, allocator traffic, telemetry tax");
  cli.add_option("trace-detail", "slots",
                 "telemetry level for the traced measurement: "
                 "off|slots|fibers|full");
  cli.add_option("only", "",
                 "restrict the matrix to one N:k cell, e.g. --only=64:16");
  if (!cli.parse(argc, argv)) return 1;
  const auto detail = obs::parse_trace_detail(cli.get("trace-detail"));
  if (!detail.has_value()) {
    std::cerr << "bench_slot_pipeline: unknown --trace-detail '"
              << cli.get("trace-detail") << "'\n";
    return 1;
  }

  const bool smoke = std::getenv("WDM_BENCH_SMOKE") != nullptr;
  std::vector<std::int32_t> ns = smoke ? std::vector<std::int32_t>{16}
                                       : std::vector<std::int32_t>{16, 64, 256};
  std::vector<std::int32_t> ks = smoke ? std::vector<std::int32_t>{8}
                                       : std::vector<std::int32_t>{8, 16, 32};
  if (!cli.get("only").empty()) {
    const std::string only = cli.get("only");
    const auto sep = only.find(':');
    if (sep == std::string::npos) {
      std::cerr << "bench_slot_pipeline: --only expects N:k\n";
      return 1;
    }
    ns = {std::stoi(only.substr(0, sep))};
    ks = {std::stoi(only.substr(sep + 1))};
  }
  const double load = 0.7;

  util::Table table({"N", "k", "scheme", "slots/s", "sched slots/s",
                     "allocs/slot", "traced slots/s"});
  bench::Json configs = bench::Json::array();
  std::uint64_t sink = 0;

  for (const std::int32_t n : ns) {
    for (const std::int32_t k : ks) {
      const std::size_t n_slots = slots_for(n, k, smoke);
      const auto slots = make_slots(n, k, n_slots, load);
      for (const bool circular : {true, false}) {
        // The full pipeline: the column bench_report.py regresses against.
        const Measurement full = run_interconnect(n, k, circular, slots);
        const Measurement sched = run_scheduler_path(n, k, circular, slots);
        obs::TraceRecorder recorder(*detail);
        const Measurement traced = run_interconnect(
            n, k, circular, slots,
            *detail == obs::TraceDetail::kOff ? nullptr : &recorder);
        sink += full.grants + sched.grants + traced.grants;
        table.add_row({util::cell(n), util::cell(k),
                       circular ? "circular" : "non-circular",
                       util::cell(static_cast<std::int64_t>(full.slots_per_s)),
                       util::cell(static_cast<std::int64_t>(sched.slots_per_s)),
                       util::cell(full.allocs_per_slot, 4),
                       util::cell(static_cast<std::int64_t>(traced.slots_per_s))});
        bench::Json row = bench::Json::object();
        row.set("n_fibers", n)
            .set("k", k)
            .set("scheme", circular ? "circular" : "non-circular")
            .set("slots", static_cast<std::uint64_t>(n_slots))
            .set("slots_per_s", full.slots_per_s)
            .set("allocs_per_slot", full.allocs_per_slot)
            .set("bytes_per_slot", full.bytes_per_slot)
            .set("scheduler_slots_per_s", sched.slots_per_s)
            .set("scheduler_allocs_per_slot", sched.allocs_per_slot)
            .set("scheduler_bytes_per_slot", sched.bytes_per_slot)
            .set("traced_slots_per_s", traced.slots_per_s)
            .set("traced_allocs_per_slot", traced.allocs_per_slot);
        configs.push(std::move(row));
      }
    }
  }

  std::cout << "Slot pipeline: load " << load << ", FIFO arbitration, "
            << "durations 1-3, kernels " << core::simd_backend() << " (sink "
            << sink << ")\n\n";
  table.print(std::cout);

  bench::Json root = bench::Json::object();
  root.set("bench", "slot_pipeline")
      .set("load", load)
      .set("smoke", smoke)
      .set("trace_detail", cli.get("trace-detail"))
      .set("simd_backend", core::simd_backend())
      .set("configs", std::move(configs));
  bench::write_bench_json("slot_pipeline", root);
  return 0;
}
