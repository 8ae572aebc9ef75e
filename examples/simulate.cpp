// General-purpose simulation driver with the telemetry plane surfaced:
//
//   simulate --n=64 --k=16 --degree=5 --load=0.8 --slots=1000
//            --trace-detail=full --telemetry=trace.json --metrics=out.prom
//
// Unlike sim::run_simulation (which owns its slot loop), this example drives
// the Interconnect directly so a trace recorder can be attached and every
// pipeline stage — including metrics recording — shows up in the exported
// Chrome trace. Open the --telemetry JSON in chrome://tracing or Perfetto;
// scrape or diff the --metrics file as Prometheus text exposition.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics_server.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/checkpoint_store.hpp"
#include "sim/fleet.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/obs_export.hpp"
#include "sim/traffic.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

// Parses scripted shard-fault specs: "S@SLOT" (crash) or "S@SLOT:NS"
// (stall), comma-separated. Returns false (with a message) on bad syntax.
bool parse_shard_faults(const std::string& spec,
                        wdm::sim::ShardFaultKind kind,
                        std::vector<wdm::sim::ShardFaultEvent>& out,
                        std::string& error) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    begin = end + 1;
    if (item.empty()) continue;
    try {
      const std::size_t at = item.find('@');
      if (at == std::string::npos) throw std::invalid_argument("no '@'");
      wdm::sim::ShardFaultEvent event;
      event.kind = kind;
      event.shard = std::stoul(item.substr(0, at));
      std::string rest = item.substr(at + 1);
      if (kind == wdm::sim::ShardFaultKind::kStall) {
        const std::size_t colon = rest.find(':');
        if (colon == std::string::npos) throw std::invalid_argument("no ':'");
        event.stall_ns = std::stoull(rest.substr(colon + 1));
        rest.resize(colon);
      }
      event.slot = std::stoull(rest);
      out.push_back(event);
    } catch (const std::exception&) {
      error = item;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wdm;

  util::Cli cli("simulate",
                "slotted WDM interconnect simulation with telemetry exports");
  cli.add_option("n", "8", "number of input/output fibers (N)");
  cli.add_option("k", "8", "wavelengths per fiber (k)");
  cli.add_option("degree", "0", "conversion degree d; 0 means full range");
  cli.add_option("kind", "circular", "conversion kind: circular|noncircular");
  cli.add_option("load", "0.8", "offered load per input channel");
  cli.add_option("slots", "1000", "measured slots");
  cli.add_option("warmup", "100", "warm-up slots discarded from metrics");
  cli.add_option("seed", "1", "master seed");
  cli.add_option("shards", "0",
                 "serve this many independent fabrics as a sim::Fleet, one "
                 "driver thread each (0 = classic single-fabric path)");
  cli.add_flag("pin-cpus",
               "pin shard i's driver to CPU i mod the available CPUs "
               "(fleet mode only; decisions and digests are unchanged)");
  cli.add_flag("supervise",
               "self-healing fleet mode: quarantine + restart crashed "
               "shards from their checkpoint chains instead of aborting");
  cli.add_option("restart-budget", "3",
                 "restart attempts per shard before it fails permanently "
                 "(with --supervise)");
  cli.add_option("backoff-slots", "2",
                 "fleet slots a quarantined shard waits before its first "
                 "restart attempt; doubles per attempt (with --supervise)");
  cli.add_option("watchdog-ns", "0",
                 "quarantine a shard making no slot progress for this many "
                 "ns while the barrier waits; 0 disables (with --supervise)");
  cli.add_option("crash-shard", "",
                 "inject scripted shard crashes: comma list of S@SLOT "
                 "(e.g. 1@250,2@900); fires once each, replays are clean");
  cli.add_option("stall-shard", "",
                 "inject scripted shard stalls: comma list of S@SLOT:NS "
                 "(driver blocks NS nanoseconds before stepping SLOT)");
  cli.add_option("policy", "nodisturb", "occupied policy: nodisturb|rearrange");
  cli.add_option("op-budget", "0",
                 "per-slot op budget for degradation; 0 disables");
  cli.add_option("slot-deadline-ns", "0",
                 "wall-clock per-slot degradation deadline in ns; 0 disables "
                 "(nondeterministic: such runs cannot be checkpoint-replayed)");
  cli.add_option("recovery-slots", "8", "hysteresis recovery slots");
  cli.add_option("retries", "0", "max retries for fault-rejected requests");
  cli.add_option("tokens-per-slot", "0",
                 "admission token refill per fiber per slot; 0 disables "
                 "admission control");
  cli.add_option("bucket-depth", "4", "admission token bucket depth");
  cli.add_option("queue-capacity", "64", "admission ingress queue bound");
  cli.add_option("drop-policy", "tail", "admission drop policy: tail|priority");
  cli.add_flag("adaptive-admission",
               "derive per-fiber token rates from grant-rate feedback "
               "(requires --tokens-per-slot > 0 as the initial rate)");
  cli.add_option("min-tokens", "0.25", "adaptive rate floor (tokens/slot)");
  cli.add_option("max-tokens", "16", "adaptive rate ceiling (tokens/slot)");
  cli.add_flag("bursty", "use on-off (bursty) sources instead of Bernoulli");
  cli.add_option("trace-detail", "off",
                 "telemetry level: off|slots|fibers|full");
  cli.add_option("trace-capacity", "65536", "trace ring buffer capacity");
  cli.add_option("telemetry", "", "write a Chrome trace JSON to this path");
  cli.add_option("telemetry-max-bytes", "0",
                 "stream the Chrome trace in segments of about this many "
                 "bytes (path, path.1, ...); 0 writes one file at exit");
  cli.add_option("metrics", "", "write a Prometheus snapshot to this path");
  cli.add_flag("metrics-per-fiber",
               "emit per-output-fiber grant counters in the Prometheus "
               "snapshot (one series per fiber; off by default)");
  cli.add_option("serve-metrics", "",
                 "serve live Prometheus snapshots over HTTP on this port "
                 "(GET /metrics; 0 picks an ephemeral port, printed at "
                 "startup); snapshots refresh every --scrape-every slots");
  cli.add_option("scrape-every", "64",
                 "slots between published /metrics snapshots "
                 "(with --serve-metrics)");
  cli.add_option("blackbox-dir", "",
                 "fleet mode: write per-shard post-mortem black boxes under "
                 "DIR/blackbox/shard-<i>-slot-<s>/ on quarantine, failure, "
                 "or watchdog abandonment");
  cli.add_option("checkpoint-dir", "",
                 "write full/delta checkpoint frames into this directory");
  cli.add_option("checkpoint-every", "0",
                 "slots between checkpoint frames; 0 disables");
  cli.add_option("full-every", "8",
                 "every full-every-th checkpoint frame is a full snapshot");
  cli.add_option("keep-fulls", "2",
                 "full-frame chains retained when pruning old checkpoints");
  cli.add_flag("resume",
               "recover the newest verified checkpoint chain from "
               "--checkpoint-dir and continue the run from there");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<std::int32_t>(cli.get_int("n"));
  const auto k = static_cast<std::int32_t>(cli.get_int("k"));
  const auto degree = cli.get_int("degree") == 0
                          ? k
                          : static_cast<std::int32_t>(cli.get_int("degree"));
  const auto detail = obs::parse_trace_detail(cli.get("trace-detail"));
  if (!detail.has_value()) {
    std::cerr << "simulate: unknown --trace-detail '"
              << cli.get("trace-detail") << "' (off|slots|fibers|full)\n";
    return 1;
  }

  // Live scrape endpoint: snapshots are published between slots (double
  // buffered in the server), so a concurrent scraper never perturbs
  // decisions — digests are identical with or without it (test-pinned).
  obs::MetricsServer server;
  const bool serve_metrics = !cli.get("serve-metrics").empty();
  const auto scrape_every = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cli.get_int("scrape-every")));
  if (serve_metrics) {
    const auto port =
        static_cast<std::uint16_t>(cli.get_int("serve-metrics"));
    if (!server.start(port)) {
      std::cerr << "simulate: --serve-metrics failed: " << server.last_error()
                << "\n";
      return 1;
    }
    std::cout << "serving /metrics on port " << server.port() << "\n";
  }

  util::Rng seeder(static_cast<std::uint64_t>(cli.get_int("seed")));
  sim::InterconnectConfig icfg;
  icfg.n_fibers = n;
  icfg.scheme = core::ConversionScheme::symmetric(
      cli.get("kind") == "circular" ? core::ConversionKind::kCircular
                                    : core::ConversionKind::kNonCircular,
      k, degree);
  icfg.policy = cli.get("policy") == "rearrange"
                    ? sim::OccupiedPolicy::kRearrange
                    : sim::OccupiedPolicy::kNoDisturb;
  icfg.seed = seeder.next();
  icfg.degrade.op_budget = static_cast<std::uint64_t>(cli.get_int("op-budget"));
  icfg.degrade.slot_deadline_ns =
      static_cast<std::uint64_t>(cli.get_int("slot-deadline-ns"));
  // Wall-clock deadlines are machine-dependent, but no longer unreplayable:
  // each overrun lands in the captured trace as a first-class event, and
  // sim::replay_from reapplies the recorded overrun schedule bit-for-bit.
  icfg.degrade.recovery_slots =
      static_cast<std::int32_t>(cli.get_int("recovery-slots"));
  icfg.retry.max_retries = static_cast<std::int32_t>(cli.get_int("retries"));
  if (cli.get_double("tokens-per-slot") > 0) {
    icfg.admission.enabled = true;
    icfg.admission.tokens_per_slot = cli.get_double("tokens-per-slot");
    icfg.admission.bucket_depth = cli.get_double("bucket-depth");
    icfg.admission.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue-capacity"));
    icfg.admission.drop_policy = cli.get("drop-policy") == "priority"
                                     ? sim::DropPolicy::kPriorityShed
                                     : sim::DropPolicy::kTailDrop;
    if (cli.get_flag("adaptive-admission")) {
      icfg.admission.adaptive.enabled = true;
      icfg.admission.adaptive.min_tokens_per_slot =
          cli.get_double("min-tokens");
      icfg.admission.adaptive.max_tokens_per_slot =
          cli.get_double("max-tokens");
    }
  } else if (cli.get_flag("adaptive-admission")) {
    std::cerr << "simulate: --adaptive-admission needs --tokens-per-slot > 0 "
                 "(the initial rate); ignoring the flag.\n";
  }

  sim::TrafficConfig tcfg;
  tcfg.load = cli.get_double("load");
  if (cli.get_flag("bursty")) tcfg.arrivals = sim::ArrivalProcess::kOnOff;

  // Fleet mode: F independent fabrics behind the slot barrier, merged
  // Prometheus export with a bounded per-shard breakdown. Tracing stays a
  // single-fabric affair (one ring per recorder); everything else — warm-up,
  // checkpoints, resume, metrics files — works the same.
  const auto shards = static_cast<std::size_t>(cli.get_int("shards"));
  if (shards > 0) {
    if (*detail != obs::TraceDetail::kOff) {
      std::cerr << "simulate: --trace-detail is single-fabric only; "
                   "ignoring it in fleet mode.\n";
    }
    sim::FleetConfig fcfg;
    fcfg.shards = shards;
    fcfg.pin_cpus = cli.get_flag("pin-cpus");
    fcfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    fcfg.interconnect = icfg;
    fcfg.traffic = tcfg;
    fcfg.supervision.enabled = cli.get_flag("supervise");
    fcfg.supervision.restart_budget =
        static_cast<std::uint32_t>(cli.get_int("restart-budget"));
    fcfg.supervision.backoff_slots =
        static_cast<std::uint64_t>(cli.get_int("backoff-slots"));
    fcfg.supervision.watchdog_ns =
        static_cast<std::uint64_t>(cli.get_int("watchdog-ns"));
    fcfg.blackbox_dir = cli.get("blackbox-dir");
    std::string bad_spec;
    if (!parse_shard_faults(cli.get("crash-shard"),
                            sim::ShardFaultKind::kCrash, fcfg.shard_faults,
                            bad_spec) ||
        !parse_shard_faults(cli.get("stall-shard"),
                            sim::ShardFaultKind::kStall, fcfg.shard_faults,
                            bad_spec)) {
      std::cerr << "simulate: bad shard-fault spec '" << bad_spec
                << "' (crash: S@SLOT, stall: S@SLOT:NS)\n";
      return 1;
    }
    for (const sim::ShardFaultEvent& event : fcfg.shard_faults) {
      if (event.shard >= shards) {
        std::cerr << "simulate: shard fault names shard " << event.shard
                  << " but the fleet has " << shards << "\n";
        return 1;
      }
    }
    sim::Fleet fleet(fcfg);
    if (fcfg.pin_cpus && !fleet.pinned()) {
      // Satellite of the supervision PR: pinning silently degrading to the
      // portable no-op fallback hid NUMA misconfiguration. One line, once.
      std::cerr << "simulate: --pin-cpus requested but CPU affinity was not "
                   "applied on every shard (unsupported platform or mask "
                   "denied); running unpinned.\n";
    }

    const auto warmup = static_cast<std::uint64_t>(cli.get_int("warmup"));
    const auto slots = static_cast<std::uint64_t>(cli.get_int("slots"));
    const auto checkpoint_every =
        static_cast<std::uint64_t>(cli.get_int("checkpoint-every"));
    const bool checkpointing =
        !cli.get("checkpoint-dir").empty() && checkpoint_every > 0;
    if (checkpointing) {
      sim::CheckpointPolicy policy;
      policy.dir = cli.get("checkpoint-dir");
      policy.full_every =
          static_cast<std::uint32_t>(cli.get_int("full-every"));
      policy.keep_fulls =
          static_cast<std::uint32_t>(cli.get_int("keep-fulls"));
      fleet.open_checkpoints(policy);
    }
    std::uint64_t start_slot = 0;
    if (cli.get_flag("resume")) {
      if (cli.get("checkpoint-dir").empty()) {
        std::cerr << "simulate: --resume needs --checkpoint-dir\n";
        return 1;
      }
      const sim::FleetRecovery recovery =
          fleet.resume_from(cli.get("checkpoint-dir"));
      for (std::size_t i = 0; i < recovery.shards.size(); ++i) {
        const sim::RecoveryReport& report = recovery.shards[i];
        for (std::size_t d = 0; d < report.discarded.size(); ++d) {
          std::cerr << "simulate: shard " << i << " discarded checkpoint "
                    << report.discarded[d] << " (" << report.reasons[d]
                    << ")\n";
        }
      }
      if (!recovery.recovered) {
        std::cerr << "simulate: no agreeing checkpoint chains for all "
                  << shards << " shards in " << cli.get("checkpoint-dir")
                  << "\n";
        return 1;
      }
      start_slot = recovery.slot;
      std::cout << "resumed " << shards << " shards at slot "
                << recovery.slot << "\n";
    }

    // The scrape endpoint reads only published snapshots, refreshed here
    // between barriers: a scrape observes the fleet at its last snapshot
    // slot, never mid-slot, and never takes the fleet lock on the hot path.
    const auto publish_snapshot = [&] {
      if (!server.running()) return;
      obs::Registry registry;
      sim::register_fleet_metrics(registry, fleet,
                                  cli.get_flag("metrics-per-fiber"));
      server.publish(registry);
    };
    publish_snapshot();

    const std::uint64_t end_slot = warmup + slots;
    if (start_slot < warmup) {
      fleet.run(warmup - start_slot);
      fleet.reset_counters();  // warm-up never pollutes the metrics
      publish_snapshot();
    }
    const util::Stopwatch clock;
    std::uint64_t done = fleet.current_slot();
    while (done < end_slot) {
      std::uint64_t chunk = end_slot - done;
      if (checkpointing) chunk = std::min(chunk, checkpoint_every);
      if (server.running()) chunk = std::min(chunk, scrape_every);
      fleet.run(chunk);
      done = fleet.current_slot();
      if (checkpointing) fleet.write_checkpoint();
      publish_snapshot();
    }
    const double wall_s = clock.elapsed_s();

    const sim::MetricsCollector merged = fleet.merged_metrics();
    std::cout << "shards=" << fleet.shards() << " pinned="
              << (fleet.pinned() ? "yes" : "no") << "\n";
    if (fcfg.supervision.enabled) {
      for (std::size_t i = 0; i < fleet.shards(); ++i) {
        std::cout << "shard " << i << ": health="
                  << sim::to_string(fleet.shard_health(i))
                  << " restarts=" << fleet.shard_restarts(i) << "\n";
      }
      std::cout << "serving=" << fleet.serving_shards() << "/"
                << fleet.shards() << " restarts=" << fleet.total_restarts()
                << " recovery_discards=" << fleet.recovery_discards()
                << "\n";
    }
    std::cout << "slots=" << merged.slots() << " arrivals="
              << merged.raw_arrivals() << " granted=" << merged.granted()
              << " loss=" << merged.loss_probability()
              << " requests/s="
              << static_cast<std::uint64_t>(
                     wall_s > 0.0
                         ? static_cast<double>(merged.raw_arrivals()) / wall_s
                         : 0.0)
              << " wall_s=" << wall_s << "\n";
    std::cout << "fleet_digest=0x" << std::hex << fleet.fleet_digest()
              << std::dec << "\n";
    if (!fcfg.blackbox_dir.empty()) {
      // Drain the writer queue first so wdm_blackbox_dumps_total in the
      // exports below counts everything this run put on disk. A
      // watchdog-abandoned driver's dump lands only once its thread is
      // joined (fleet destruction below), so the count can still miss dumps
      // that are guaranteed on disk by process exit.
      fleet.flush_black_boxes();
      std::cout << "black boxes written: " << fleet.black_box_dumps()
                << " under " << fcfg.blackbox_dir << "/blackbox\n";
    }
    if (!cli.get("metrics").empty()) {
      std::ofstream os(cli.get("metrics"));
      if (!os) {
        std::cerr << "simulate: cannot open " << cli.get("metrics") << "\n";
        return 1;
      }
      obs::Registry registry;
      sim::register_fleet_metrics(registry, fleet,
                                  cli.get_flag("metrics-per-fiber"));
      obs::write_prometheus(os, registry);
      std::cout << "wrote Prometheus snapshot to " << cli.get("metrics")
                << "\n";
    }
    if (server.running()) {
      std::cout << "metrics scrapes served: " << server.scrapes() << "\n";
      server.stop();
    }
    return 0;
  }

  sim::Interconnect interconnect(icfg);
  sim::TrafficGenerator traffic(n, k, tcfg, seeder.next());
  sim::MetricsCollector metrics(n, k);

  obs::TraceRecorder recorder(
      *detail, static_cast<std::size_t>(cli.get_int("trace-capacity")));
  interconnect.set_telemetry(*detail == obs::TraceDetail::kOff ? nullptr
                                                               : &recorder);

  const auto warmup = static_cast<std::uint64_t>(cli.get_int("warmup"));
  const auto slots = static_cast<std::uint64_t>(cli.get_int("slots"));

  std::unique_ptr<sim::CheckpointStore> store;
  const auto checkpoint_every =
      static_cast<std::uint64_t>(cli.get_int("checkpoint-every"));
  if (!cli.get("checkpoint-dir").empty() && checkpoint_every > 0) {
    sim::CheckpointPolicy policy;
    policy.dir = cli.get("checkpoint-dir");
    policy.full_every = static_cast<std::uint32_t>(cli.get_int("full-every"));
    policy.keep_fulls = static_cast<std::uint32_t>(cli.get_int("keep-fulls"));
    store = std::make_unique<sim::CheckpointStore>(policy);
  }
  std::uint64_t start_slot = 0;
  std::uint64_t recovery_discards = 0;
  if (cli.get_flag("resume")) {
    if (cli.get("checkpoint-dir").empty()) {
      std::cerr << "simulate: --resume needs --checkpoint-dir\n";
      return 1;
    }
    const sim::RecoveryReport report =
        sim::recover_latest(cli.get("checkpoint-dir"), interconnect, &traffic);
    for (std::size_t i = 0; i < report.discarded.size(); ++i) {
      std::cerr << "simulate: discarded checkpoint " << report.discarded[i]
                << " (" << report.reasons[i] << ")\n";
    }
    recovery_discards = report.discarded.size();
    if (!report.recovered) {
      std::cerr << "simulate: no recoverable checkpoint chain in "
                << cli.get("checkpoint-dir") << "\n";
      return 1;
    }
    start_slot = report.slot;
    std::cout << "resumed at slot " << report.slot << " from " << report.used
              << " (" << report.frames_applied << " frames applied)\n";
  }

  // Segmented streaming export: drain the recorder into rolling JSON
  // segments during the run instead of one snapshot at exit, so a long soak
  // never outgrows the ring buffer or a single file.
  std::unique_ptr<obs::ChromeTraceSegmentWriter> segments;
  const auto telemetry_max_bytes =
      static_cast<std::uint64_t>(cli.get_int("telemetry-max-bytes"));
  if (!cli.get("telemetry").empty() && telemetry_max_bytes > 0) {
    segments = std::make_unique<obs::ChromeTraceSegmentWriter>(
        cli.get("telemetry"), telemetry_max_bytes);
  }
  std::vector<obs::TraceEvent> drained;
  constexpr std::uint64_t kDrainEverySlots = 512;

  // Same double-buffered publish as fleet mode: the slot loop renders a
  // snapshot every scrape_every slots; the accept thread serves only
  // published strings.
  const auto publish_snapshot = [&] {
    if (!server.running()) return;
    obs::Registry registry;
    sim::register_metrics(registry, metrics,
                          cli.get_flag("metrics-per-fiber"));
    obs::register_recorder(registry, recorder);
    server.publish(registry);
  };
  publish_snapshot();

  const util::Stopwatch clock;
  for (std::uint64_t slot = start_slot; slot < warmup + slots; ++slot) {
    const auto arrivals = traffic.next_slot(interconnect.input_channel_busy());
    const sim::SlotStats stats = interconnect.step(arrivals);
    if (store && interconnect.current_slot() % checkpoint_every == 0) {
      store->write(interconnect, &traffic);
    }
    if (segments && slot % kDrainEverySlots == 0) {
      recorder.drain(drained);
      segments->write(drained);
    }
    if (server.running() && slot % scrape_every == 0) publish_snapshot();
    if (slot < warmup) continue;
    const obs::StageTimer metrics_timer(
        *detail == obs::TraceDetail::kOff ? nullptr : &recorder,
        obs::Stage::kMetrics, slot);
    metrics.record_slot(stats);
    for (std::int32_t fiber = 0; fiber < n; ++fiber) {
      metrics.record_fiber_grants(
          fiber,
          interconnect.last_fiber_grants()[static_cast<std::size_t>(fiber)]);
    }
  }
  const double wall_s = clock.elapsed_s();

  std::cout << "slots=" << metrics.slots() << " arrivals="
            << metrics.raw_arrivals() << " granted=" << metrics.granted()
            << " loss=" << metrics.loss_probability()
            << " throughput=" << metrics.throughput_per_channel()
            << " utilization=" << metrics.utilization()
            << " wall_s=" << wall_s << "\n";
  std::cout << "state_digest=0x" << std::hex << sim::state_digest(interconnect)
            << std::dec << "\n";
  if (*detail != obs::TraceDetail::kOff) {
    std::cout << "trace: " << recorder.recorded() << " events recorded, "
              << recorder.dropped() << " dropped (ring capacity "
              << recorder.capacity() << ")\n";
  }

  if (segments) {
    recorder.drain(drained);
    segments->write(drained);
    segments->finish();
    std::cout << "wrote " << segments->segment_paths().size()
              << " Chrome trace segment(s) under " << cli.get("telemetry")
              << "\n";
  } else if (!cli.get("telemetry").empty()) {
    std::ofstream os(cli.get("telemetry"));
    if (!os) {
      std::cerr << "simulate: cannot open " << cli.get("telemetry") << "\n";
      return 1;
    }
    obs::write_chrome_trace(os, recorder);
    std::cout << "wrote Chrome trace to " << cli.get("telemetry") << "\n";
  }
  if (!cli.get("metrics").empty()) {
    std::ofstream os(cli.get("metrics"));
    if (!os) {
      std::cerr << "simulate: cannot open " << cli.get("metrics") << "\n";
      return 1;
    }
    obs::Registry registry;
    sim::register_metrics(registry, metrics, cli.get_flag("metrics-per-fiber"));
    registry.counter("wdm_recovery_discards_total",
                     "Checkpoint frames discarded during --resume recovery "
                     "(torn/corrupt/unchained)",
                     recovery_discards);
    obs::register_recorder(registry, recorder);
    obs::write_prometheus(os, registry);
    std::cout << "wrote Prometheus snapshot to " << cli.get("metrics") << "\n";
  }
  if (server.running()) {
    publish_snapshot();  // final state, in case a scraper polls at exit
    std::cout << "metrics scrapes served: " << server.scrapes() << "\n";
    server.stop();
  }
  return 0;
}
