// Fleet serving throughput: scaling in the number of shards.
//
// Drives sim::Fleet — F independent fabrics behind the slot barrier, one
// driver thread each — and records aggregate requests/s (offered requests
// carried to a decision per wall-clock second, summed over shards) plus
// per-shard scaling efficiency:
//     eff(F) = requests/s at F shards / (F × requests/s at 1 shard).
// Each multi-shard cell carries its own 1-shard baseline: a 1-shard fleet
// built, warmed and swept alternately with the F-shard one, so both sides
// of the ratio see the same host state (a single baseline taken first, on a
// colder host, read efficiencies above 1).
// Shards share no state, so on a host with enough cores efficiency should
// hold ≥ 0.7 up to the physical core count; past it the shards time-slice
// and the column records honest saturation. The host block in
// BENCH_fleet.json (bench_io.hpp) says how many CPUs the capture machine
// actually had — scaling claims only apply at shards ≤ that.
//
// WDM_BENCH_SMOKE=1 shrinks the sweep for the CI fleet-smoke job;
// --pin adds a pinned (cpu-affinity) variant of every cell, --supervise a
// fault-free supervised one, and --shards overrides the shard axis (a
// comma-separated list).
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "sim/fleet.hpp"
#include "util/cli.hpp"
#include "util/cpu_affinity.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace wdm;

struct Measurement {
  double slots_per_s = 0.0;      ///< fleet slots (all shards advance one)
  double requests_per_s = 0.0;   ///< offered requests decided, all shards
  double granted_per_s = 0.0;
  bool pinned = false;
};

/// One warmed fleet under measurement: sweep() times `slots` fleet slots
/// and keeps the fastest sweep, the closest estimate on a shared host.
class Cell {
 public:
  Cell(std::size_t shards, bool pin, bool supervise, std::uint64_t slots)
      : fleet_(config(shards, pin, supervise)), slots_(slots) {
    fleet_.run(slots / 4 + 1);  // warm-up: arenas and buffers at high water
    fleet_.reset_counters();
  }

  void sweep() {
    // Request counts differ between sweeps at the slice boundaries, so
    // rates use each sweep's own counter delta.
    const std::uint64_t arrivals0 = fleet_.total_arrivals();
    const std::uint64_t granted0 = fleet_.total_granted();
    const util::Stopwatch clock;
    fleet_.run(slots_);
    const double elapsed = clock.elapsed_s();
    if (best_elapsed_ == 0.0 || elapsed < best_elapsed_) {
      best_elapsed_ = elapsed;
      best_arrivals_ = fleet_.total_arrivals() - arrivals0;
      best_granted_ = fleet_.total_granted() - granted0;
    }
  }

  Measurement best() const {
    Measurement m;
    m.pinned = fleet_.pinned();
    m.slots_per_s = static_cast<double>(slots_) / best_elapsed_;
    m.requests_per_s = static_cast<double>(best_arrivals_) / best_elapsed_;
    m.granted_per_s = static_cast<double>(best_granted_) / best_elapsed_;
    return m;
  }

 private:
  static sim::FleetConfig config(std::size_t shards, bool pin,
                                 bool supervise) {
    sim::FleetConfig cfg;
    cfg.shards = shards;
    cfg.pin_cpus = pin;
    // Fault-free supervised serving: measures the supervision layer's
    // steady-state overhead (richer barrier predicate, health bookkeeping)
    // — decisions and digests are identical to the unsupervised cell.
    cfg.supervision.enabled = supervise;
    cfg.seed = 9;
    cfg.interconnect.n_fibers = 64;
    cfg.interconnect.scheme = core::ConversionScheme::circular(16, 1, 1);
    cfg.interconnect.arbitration = core::Arbitration::kFifo;
    cfg.traffic.load = 0.8;
    cfg.traffic.holding = sim::HoldingTime::kGeometric;
    cfg.traffic.mean_holding = 2.0;
    return cfg;
  }

  sim::Fleet fleet_;
  std::uint64_t slots_;
  double best_elapsed_ = 0.0;
  std::uint64_t best_arrivals_ = 0;
  std::uint64_t best_granted_ = 0;
};

constexpr int kSweeps = 3;

std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoul(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_fleet",
                "sharded fleet serving throughput and scaling efficiency");
  cli.add_option("shards", "", "comma-separated shard counts (default sweep)");
  cli.add_flag("pin", "additionally measure every cell with CPU pinning");
  cli.add_flag("supervise",
               "additionally measure every cell with fault-free supervision "
               "enabled (steady-state overhead of the self-healing layer)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = std::getenv("WDM_BENCH_SMOKE") != nullptr;
  const std::size_t cpus = util::available_cpus();
  std::vector<std::size_t> shard_axis =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  if (!cli.get("shards").empty()) shard_axis = parse_list(cli.get("shards"));
  const std::uint64_t slots = smoke ? 400 : 4000;

  std::vector<bool> pin_axis = {false};
  if (cli.get_flag("pin")) pin_axis.push_back(true);
  std::vector<bool> supervise_axis = {false};
  if (cli.get_flag("supervise")) supervise_axis.push_back(true);

  util::Table table({"shards", "pin", "sup", "slots/s", "req/s", "granted/s",
                     "efficiency"});
  bench::Json rows = bench::Json::array();

  for (const bool supervise : supervise_axis) {
    for (const bool pin : pin_axis) {
      for (const std::size_t shards : shard_axis) {
        // The F-shard cell and its own 1-shard baseline, swept alternately.
        Cell many(shards, pin, supervise, slots);
        std::optional<Cell> one;
        if (shards != 1) one.emplace(1, pin, supervise, slots);
        for (int rep = 0; rep < kSweeps; ++rep) {
          if (one) one->sweep();
          many.sweep();
        }
        const Measurement m = many.best();
        const double single_req_s =
            one ? one->best().requests_per_s : m.requests_per_s;
        const double efficiency =
            single_req_s > 0.0 ? m.requests_per_s /
                                     (static_cast<double>(shards) *
                                      single_req_s)
                               : 0.0;
        table.add_row(
            {util::cell(static_cast<std::int64_t>(shards)),
             m.pinned ? "yes" : "no", supervise ? "yes" : "no",
             util::cell(static_cast<std::int64_t>(m.slots_per_s)),
             util::cell(static_cast<std::int64_t>(m.requests_per_s)),
             util::cell(static_cast<std::int64_t>(m.granted_per_s)),
             util::cell(efficiency, 3)});
        bench::Json row = bench::Json::object();
        row.set("shards", static_cast<std::uint64_t>(shards))
            .set("pinned", m.pinned)
            .set("supervised", supervise)
            .set("slots", slots)
            .set("slots_per_s", m.slots_per_s)
            .set("requests_per_s", m.requests_per_s)
            .set("granted_per_s", m.granted_per_s)
            .set("baseline_requests_per_s", single_req_s)
            .set("efficiency", efficiency);
        rows.push(std::move(row));
      }
    }
  }

  std::cout << "Fleet: N=64 k=16 load 0.8, geometric holding, "
            << cpus << " CPUs available; efficiency = req/s / (shards x "
            << "1-shard req/s, the 1-shard fleet swept alternately with each "
            << "cell) — claims apply at shards <= CPUs\n\n";
  table.print(std::cout);

  bench::Json root = bench::Json::object();
  root.set("bench", "fleet")
      .set("smoke", smoke)
      .set("available_cpus", static_cast<std::uint64_t>(cpus))
      .set("n_fibers", 64)
      .set("k", 16)
      .set("load", 0.8)
      .set("configs", std::move(rows));
  bench::write_bench_json("fleet", root);
  return 0;
}
