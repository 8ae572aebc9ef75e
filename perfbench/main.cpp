// Slot-loop benchmark of the WDM interconnect (README.md in this directory
// documents the workloads and every metric).
//
//   wdm_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run that gives the per-layer ledger and writes the
// benchmark's spans to --trace-out as a Chrome trace. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit status is 0 only when the correctness gate passed.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/simd.hpp"
#include "law_probe.hpp"
#include "slot_loop.hpp"
#include "spans.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string trace_out;
};

void usage() {
  std::cerr << "usage: wdm_perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--trace-out PATH]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) return false;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      o.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1) {
      o.seconds = n;
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      o.trace = n == 1;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return false;
    }
  }
  return o.workload != nullptr;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Median over a run's episodes of one per-episode figure.
double episode_median(const LoopSamples& s, double Episode::*field) {
  std::vector<double> v;
  for (const Episode& e : s.episodes) v.push_back(e.*field);
  return quantile(std::move(v), 0.50);
}

/// Peak resident set of this process image, in MiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is only the fallback, because
/// Linux carries it over exec from the process that forked the benchmark
/// (under a Python launcher it reads about 14 MiB whatever the benchmark
/// does).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::uint64_t deadline_at(std::uint64_t start, std::uint64_t seconds,
                          double share) {
  return start + static_cast<std::uint64_t>(static_cast<double>(seconds) *
                                            share * 1e9);
}

/// At the default seed, `w`'s first episode must end in its pinned digest.
void expect_pinned(const Options& o, const Workload& w, std::uint64_t digest,
                   Gate& gate) {
  if (o.seed == kDefaultSeed) {
    gate.expect_digest("pinned default-seed digest", digest, w.pinned_digest);
  }
}

std::vector<Metric> end_to_end(const Options& o, Gate& gate) {
  const Workload& w = *o.workload;
  const std::uint64_t start = wdm::util::now_ns();
  const std::uint64_t deadline = deadline_at(start, o.seconds, 1.0);
  LoopSamples s;
  if (w.shards > 0) {
    run_fleet(w, o.seed, deadline, gate, s, nullptr);
  } else {
    run_single(w, o.seed, /*as_fleet_shard=*/false, deadline, gate, s);
  }
  expect_pinned(o, w, s.digests.front(), gate);
  std::printf("episodes %zu, timed slots %zu per episode, first digest "
              "%016llx\n",
              s.episodes.size(), static_cast<std::size_t>(w.measured_slots),
              static_cast<unsigned long long>(s.digests.front()));
  const Summary sum = summarize(s);
  return {
      {"requests_per_s", sum.requests_per_s, "req/s"},
      {"slot_p50_us", sum.p50_ns / 1e3, "us"},
      {"slot_p99_us", sum.p99_ns / 1e3, "us"},
      {"loss_probability", s.loss_probability, "ratio"},
      {"setup_s", sum.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

/// The per-layer ledger. A workload with a barrier probe (or a fleet
/// workload itself) first runs its fleet, traced and untraced; the fabric
/// layers are then measured on the workload's own fabric or, for a fleet
/// workload, on a standalone copy of shard 0, built and seeded exactly as
/// the fleet builds it (its digest must equal the shard's).
std::vector<Metric> per_layer(const Options& o, Gate& gate, SpanBuffer& spans) {
  const Workload& w = *o.workload;
  const bool is_fleet = w.shards > 0;
  const Workload* fleet_w =
      is_fleet ? &w : find_workload(w.barrier_probe);  // null: no fleet
  const std::uint64_t start = wdm::util::now_ns();
  double elapsed_share = 0.0;
  const auto after = [&](double share) {
    elapsed_share += share;
    return deadline_at(start, o.seconds, elapsed_share);
  };

  LoopSamples traced, untraced, fleet_traced, fleet_untraced;
  Ledger ledger;
  ArrivalCapture capture;
  std::uint64_t fabric_seed = o.seed;
  if (fleet_w != nullptr) {
    run_fleet(*fleet_w, o.seed, after(0.15), gate, fleet_traced, &spans);
    run_fleet(*fleet_w, o.seed, after(0.15), gate, fleet_untraced, nullptr);
    expect_same_digests("traced vs untraced fleet", fleet_traced,
                        fleet_untraced, gate);
    expect_pinned(o, *fleet_w, fleet_untraced.digests.front(), gate);
  }
  if (is_fleet) fabric_seed = fleet_untraced.shard0_seed;
  const double fabric_share = fleet_w != nullptr ? 0.25 : 0.40;
  run_single_traced(w, fabric_seed, is_fleet, after(fabric_share), gate,
                    traced, ledger, spans, &capture);
  run_single(w, fabric_seed, is_fleet, after(fabric_share / 2), gate,
             untraced);
  expect_same_digests("traced vs untraced fabric", traced, untraced, gate);
  if (is_fleet) {
    gate.expect_digest("standalone shard 0 vs fleet shard 0",
                       untraced.digests.front(), fleet_untraced.shard0_digest);
  } else {
    expect_pinned(o, w, untraced.digests.front(), gate);
  }
  CoreIsolation iso;
  run_core_isolation(w, fabric_seed, capture, after(0.10), gate, iso);
  const LawProbe law =
      run_law_probe(o.seed, deadline_at(start, o.seconds, 1.0), gate);

  const double slots = static_cast<double>(ledger.slots);
  const double step_ns = static_cast<double>(ledger.step_ns);
  std::vector<Metric> m;
  m.push_back({"traffic.ns_per_slot",
               ratio(static_cast<double>(ledger.traffic_ns), slots), "ns"});
  m.push_back({"traffic.share",
               ratio(static_cast<double>(ledger.traffic_ns),
                     static_cast<double>(ledger.loop_ns)),
               "ratio"});
  m.push_back({"step.ns_p50", quantile(ledger.step_samples, 0.50), "ns"});
  m.push_back({"step.ns_p99", quantile(ledger.step_samples, 0.99), "ns"});
  m.push_back({"step.share",
               ratio(step_ns, static_cast<double>(ledger.loop_ns)), "ratio"});
  m.push_back({"step.allocs_per_slot",
               ratio(static_cast<double>(ledger.step_alloc.allocs), slots),
               "count"});
  m.push_back({"step.bytes_per_slot",
               ratio(static_cast<double>(ledger.step_alloc.bytes), slots),
               "B"});
  double staged = 0.0;
  for (std::size_t i = 0; i < kLedgerStages; ++i) {
    const auto ns = static_cast<double>(ledger.stage_ns[i]);
    staged += ns;
    const std::string name = std::string("stage.") + kLedgerStageNames[i];
    m.push_back({name + ".ns_per_slot", ratio(ns, slots), "ns"});
    m.push_back({name + ".share", ratio(ns, step_ns), "ratio"});
  }
  m.push_back({"stage.residual.ns_per_slot", ratio(step_ns - staged, slots),
               "ns"});
  m.push_back({"stage.residual.share", ratio(step_ns - staged, step_ns),
               "ratio"});
  m.push_back({"core.schedule.ns_per_port",
               ratio(static_cast<double>(iso.ns),
                     static_cast<double>(iso.calls) * iso.ports),
               "ns"});
  m.push_back({"core.schedule.allocs_per_slot",
               ratio(static_cast<double>(iso.alloc.allocs),
                     static_cast<double>(iso.calls)),
               "count"});
  m.push_back({"core.law.fa_ns_per_k", law.fa_ns_per_k, "ns"});
  m.push_back({"core.law.bfa_ns_per_dk", law.bfa_ns_per_dk, "ns"});
  m.push_back({"core.law.n_flatness", law.n_flatness, "ratio"});
  m.push_back({"hw.cycles_fa", law.hw_cycles_fa, "cycles"});
  m.push_back({"hw.cycles_bfa", law.hw_cycles_bfa, "cycles"});
  m.push_back({"metrics.ns_per_slot",
               ratio(static_cast<double>(ledger.metrics_ns), slots), "ns"});
  const ControlPlane& c = ledger.control;
  m.push_back({"admission.shed_ratio",
               ratio(static_cast<double>(c.shed), static_cast<double>(c.fresh)),
               "ratio"});
  m.push_back({"retry.success_ratio",
               ratio(static_cast<double>(c.retry_successes),
                     static_cast<double>(c.retry_attempts)),
               "ratio"});
  m.push_back({"faults.rejected_ratio",
               ratio(static_cast<double>(c.rejected_faulted),
                     static_cast<double>(c.offered)),
               "ratio"});
  m.push_back({"ingress.queue_depth_mean",
               ratio(static_cast<double>(c.ingress_depth_sum),
                     static_cast<double>(w.measured_slots)),
               "count"});
  // Without a fleet there is no barrier: nothing to sync, perfect
  // efficiency, and the one fabric's step p99 is the largest shard's.
  const double fabric_p50 = summarize(untraced).p50_ns;
  const double fleet_p50 = summarize(fleet_untraced).p50_ns;
  const bool barrier = fleet_w != nullptr;
  m.push_back({"fleet.sync_ns_per_slot", barrier ? fleet_p50 - fabric_p50 : 0.0,
               "ns"});
  m.push_back({"fleet.efficiency",
               barrier ? ratio(fabric_p50, fleet_p50) : 1.0, "ratio"});
  m.push_back({"fleet.shard_step_p99_max_us",
               (barrier ? episode_median(fleet_untraced,
                                         &Episode::shard_step_p99_max_ns)
                        : quantile(ledger.step_samples, 0.99)) /
                   1e3,
               "us"});
  const double tax =
      is_fleet ? ratio(summarize(fleet_traced).p50_ns, fleet_p50)
               : ratio(summarize(traced).p50_ns, fabric_p50);
  m.push_back({"obs.trace_tax", tax - 1.0, "ratio"});

  std::printf("traced slots %llu, spans %zu (dropped %llu)\n",
              static_cast<unsigned long long>(ledger.slots), spans.size(),
              static_cast<unsigned long long>(spans.dropped()));
  std::printf("core isolation: %llu schedule_slot_into calls over %zu "
              "captured slots\n",
              static_cast<unsigned long long>(iso.calls), capture.slots());
  std::printf("%-4s %5s %4s %3s %12s %10s\n", "alg", "N", "k", "d",
              "ns/port", "hw cycles");
  for (const LawRow& r : law.rows) {
    std::printf("%-4s %5d %4d %3d %12.1f %10.1f\n", r.algorithm, r.n, r.k, r.d,
                r.ns_per_port, r.hw_cycles);
  }
  return m;
}

void print_json(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += gate.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(gate.attempted);
  out += ", \"failed\": " +
         std::to_string(gate.failed + gate.problems.size());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  std::printf("workload %s, seed %llu, %llu s, trace %d, kernels %s\n",
              o.workload->name.data(),
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.seconds), o.trace ? 1 : 0,
              wdm::core::simd_backend());
  Gate gate;
  SpanBuffer spans(o.trace ? std::size_t{1} << 15 : 0);
  const std::vector<Metric> metrics =
      o.trace ? per_layer(o, gate, spans) : end_to_end(o, gate);
  if (o.trace && !o.trace_out.empty()) {
    std::ofstream os(o.trace_out);
    spans.write_chrome_trace(os);
    os.close();
    if (!os) gate.problem("cannot write trace " + o.trace_out);
    std::printf("trace written to %s\n", o.trace_out.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& p : gate.problems) {
    std::printf("CORRECTNESS: %s\n", p.c_str());
  }
  if (gate.failed > 0) {
    std::printf("CORRECTNESS: %llu of %llu gated operations failed\n",
                static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted));
  }
  std::fflush(stdout);
  print_json(gate, metrics);
  return gate.ok() ? 0 : 1;
}
