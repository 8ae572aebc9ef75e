#include "slot_loop.hpp"

#include <malloc.h>

#include <bit>
#include <memory>
#include <span>
#include <sstream>

#include "core/wave_mask.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fleet.hpp"
#include "sim/interconnect.hpp"
#include "sim/traffic.hpp"
#include "util/cpu_affinity.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace wdm;

void SlotTimes::add(std::uint64_t ns) noexcept {
  std::size_t bucket = kBuckets - 1;
  const unsigned exponent = static_cast<unsigned>(std::bit_width(ns)) - 1;
  if (ns < (std::uint64_t{1} << kSubBits)) {
    bucket = static_cast<std::size_t>(ns);
  } else if (exponent <= kMaxExponent) {
    const unsigned shift = exponent - kSubBits;
    bucket = (std::size_t{shift + 1} << kSubBits) +
             static_cast<std::size_t>((ns >> shift) - (1u << kSubBits));
  }
  counts_[bucket] += 1;
  total_ += 1;
}

double SlotTimes::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(static_cast<double>(total_) * q)), 1,
      total_);
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  while (seen + counts_[bucket] < rank) seen += counts_[bucket++];
  if (bucket < (std::size_t{1} << kSubBits)) return static_cast<double>(bucket);
  const std::size_t shift = (bucket >> kSubBits) - 1;
  const std::uint64_t mantissa =
      (bucket & ((1u << kSubBits) - 1)) + (1u << kSubBits);
  const double lo = static_cast<double>(mantissa << shift);
  return lo + static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
}

Summary summarize(const LoopSamples& s) {
  std::vector<double> rps, p50, setup;
  for (const Episode& e : s.episodes) {
    rps.push_back(e.requests_per_s);
    p50.push_back(e.p50_ns);
    setup.push_back(e.setup_s);
  }
  Summary out;
  out.requests_per_s = quantile(std::move(rps), 0.10);
  out.p50_ns = quantile(std::move(p50), 0.90);
  out.p99_ns = s.slot_times.quantile(0.99);
  out.setup_s = quantile(std::move(setup), 0.50);
  return out;
}

void Gate::check_slot(const sim::SlotStats& s) noexcept {
  attempted += 1;
  const bool conserved = s.granted + s.rejected + s.deferred_faulted +
                             s.deferred_overload ==
                         s.arrivals + s.retry_attempts + s.ingress_releases;
  if (!conserved || s.rejected_malformed != 0) failed += 1;
}

std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  return episode == 0 ? seed : util::derive_stream_seed(seed, episode);
}

void expect_same_digests(const char* what, const LoopSamples& a,
                         const LoopSamples& b, Gate& gate) {
  const std::size_t n = std::min(a.digests.size(), b.digests.size());
  for (std::size_t e = 0; e < n; ++e) {
    gate.expect_digest(what, a.digests[e], b.digests[e]);
  }
}

void Gate::expect_digest(const char* what, std::uint64_t got,
                         std::uint64_t want) {
  if (got == want) return;
  std::ostringstream os;
  os << what << ": digest " << std::hex << got << " != " << want;
  problem(os.str());
}

namespace {

/// A fabric seeded like sim::run_simulation (and like each sim::Fleet
/// shard): one seeder drawn for the interconnect, then for the traffic.
struct Seeds {
  std::uint64_t interconnect = 0;
  std::uint64_t traffic = 0;
};

Seeds derive_seeds(std::uint64_t master_seed) {
  util::Rng seeder(master_seed);
  Seeds s;
  s.interconnect = seeder.next();
  s.traffic = seeder.next();
  return s;
}

sim::InterconnectConfig seeded(sim::InterconnectConfig config,
                               std::uint64_t seed) {
  config.seed = seed;
  return config;
}

struct Fabric {
  Fabric(const Workload& w, Seeds seeds, bool as_fleet_shard, bool traced)
      : ic(seeded(w.interconnect, seeds.interconnect)),
        traffic(ic.n_fibers(), ic.k(), w.traffic, seeds.traffic),
        metrics(ic.n_fibers(), ic.k()) {
    if (as_fleet_shard) ic.reserve_worst_case_scratch();
    if (as_fleet_shard || traced) {
      // The flight recorder a fleet shard flies with; the traced run uses
      // the same shape to read the step stages src/ already records.
      const obs::FlightRecorderConfig flight;
      recorder = std::make_unique<obs::TraceRecorder>(obs::TraceDetail::kSlots,
                                                      flight.capacity);
      ic.set_telemetry(recorder.get());
    }
    const auto channels = static_cast<std::size_t>(ic.n_fibers()) *
                          static_cast<std::size_t>(ic.k());
    busy.reserve(channels);
    arrivals.reserve(channels);
  }

  void record(const sim::SlotStats& stats) {
    metrics.record_slot(stats);
    const auto& grants = ic.last_fiber_grants();
    for (std::int32_t fiber = 0; fiber < ic.n_fibers(); ++fiber) {
      metrics.record_fiber_grants(fiber,
                                  grants[static_cast<std::size_t>(fiber)]);
    }
  }

  sim::Interconnect ic;
  sim::TrafficGenerator traffic;
  sim::MetricsCollector metrics;
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::vector<std::uint8_t> busy;
  std::vector<core::SlotRequest> arrivals;
};

/// Ends an episode whose timed slot times are `slot_ns` (emptied here). The
/// episode's state is gone by now, so freed heap goes back to the system
/// here: peak RSS then measures one episode, not how the allocator happened
/// to spread successive episodes over its arenas.
void finish_episode(std::uint64_t digest, double setup_s, std::uint64_t fresh,
                    std::vector<std::uint64_t>& slot_ns,
                    double shard_step_p99_max_ns, LoopSamples& out) {
  double busy_s = 0.0;
  for (const std::uint64_t ns : slot_ns) {
    busy_s += static_cast<double>(ns) / 1e9;
    out.slot_times.add(ns);
  }
  out.episodes.push_back(Episode{
      setup_s, busy_s > 0.0 ? static_cast<double>(fresh) / busy_s : 0.0,
      quantile(slot_ns, 0.50), shard_step_p99_max_ns});
  slot_ns.clear();
  out.digests.push_back(digest);
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(util::now_ns() - t0_ns) / 1e9;
}

std::size_t ledger_stage(obs::Stage stage) {
  switch (stage) {
    case obs::Stage::kAging: return kAging;
    case obs::Stage::kFaults: return kFaults;
    case obs::Stage::kRetry: return kRetry;
    case obs::Stage::kIngress: return kIngress;
    case obs::Stage::kAdmission: return kAdmission;
    case obs::Stage::kPartition: return kPartition;
    case obs::Stage::kFanout: return kFanout;
    default: return kLedgerStages;  // kSlot, kMetrics: not step stages
  }
}

/// Adds one slot's stage spans (drained from the recorder) to the ledger as
/// self time: a partition or fan-out span inside a retry or ingress span is
/// that pass's scheduling and is taken out of the enclosing span.
void add_stage_self_times(std::span<const obs::TraceEvent> events,
                          std::array<std::int64_t, kLedgerStages>& acc) {
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::EventKind::kStage) continue;
    const std::size_t stage = ledger_stage(static_cast<obs::Stage>(e.detail));
    if (stage == kLedgerStages) continue;
    const auto dur = static_cast<std::int64_t>(e.dur_ns);
    acc[stage] += dur;
    if (stage != kPartition && stage != kFanout) continue;
    for (const obs::TraceEvent& p : events) {
      if (p.kind != obs::EventKind::kStage) continue;
      const std::size_t outer = ledger_stage(static_cast<obs::Stage>(p.detail));
      if (outer != kRetry && outer != kIngress) continue;
      if (p.ts_ns <= e.ts_ns && e.ts_ns + e.dur_ns <= p.ts_ns + p.dur_ns) {
        acc[outer] -= dur;
      }
    }
  }
}

void capture_availability(const sim::Interconnect& ic, ArrivalCapture& c) {
  const core::AvailabilityView view = ic.availability_view();
  for (std::int32_t fiber = 0; fiber < view.n_fibers(); ++fiber) {
    const auto row = view.row(fiber);
    c.avail.insert(c.avail.end(), row.begin(), row.end());
    const auto bits = view.bits_row(fiber);
    c.avail_bits.insert(c.avail_bits.end(), bits.begin(), bits.end());
  }
}

}  // namespace

void run_single(const Workload& w, std::uint64_t master_seed,
                bool as_fleet_shard, std::uint64_t deadline_ns, Gate& gate,
                LoopSamples& out) {
  const std::uint64_t total = w.warmup_slots + w.measured_slots;
  std::vector<std::uint64_t> slot_ns;
  slot_ns.reserve(w.measured_slots);
  do {
    const bool first = out.episodes.empty();
    const Seeds seeds =
        derive_seeds(episode_seed(master_seed, out.episodes.size()));
    double setup_s = 0.0;
    std::uint64_t fresh = 0;
    std::uint64_t digest = 0;
    {
      const std::uint64_t setup_t0 = util::now_ns();
      Fabric f(w, seeds, as_fleet_shard, /*traced=*/false);
      setup_s = seconds_since(setup_t0);
      for (std::uint64_t slot = 0; slot < total; ++slot) {
        const bool timed = slot >= w.warmup_slots;
        const std::uint64_t t0 = util::now_ns();
        f.ic.input_channel_busy_into(f.busy);
        f.traffic.next_slot_into(f.busy, f.arrivals);
        const sim::SlotStats stats = f.ic.step(f.arrivals);
        if (timed) f.record(stats);
        const std::uint64_t t1 = util::now_ns();
        gate.check_slot(stats);
        if (!timed) continue;
        slot_ns.push_back(t1 - t0);
        fresh += stats.arrivals;
      }
      if (first) out.loss_probability = f.metrics.loss_probability();
      digest = sim::state_digest(f.ic);
    }
    finish_episode(digest, setup_s, fresh, slot_ns, 0.0, out);
  } while (util::now_ns() < deadline_ns);
}

void run_single_traced(const Workload& w, std::uint64_t master_seed,
                       bool as_fleet_shard, std::uint64_t deadline_ns,
                       Gate& gate, LoopSamples& out, Ledger& ledger,
                       SpanBuffer& spans, ArrivalCapture* capture) {
  const std::uint64_t total = w.warmup_slots + w.measured_slots;
  std::vector<std::uint64_t> slot_ns;
  slot_ns.reserve(w.measured_slots);
  std::vector<obs::TraceEvent> events;
  events.reserve(obs::FlightRecorderConfig{}.capacity);
  do {
    const bool first = out.episodes.empty();
    const Seeds seeds =
        derive_seeds(episode_seed(master_seed, out.episodes.size()));
    const bool capturing = capture != nullptr && first;
    double setup_s = 0.0;
    ControlPlane counts;
    std::uint64_t digest = 0;
    {
      const std::uint64_t setup_t0 = util::now_ns();
      Fabric f(w, seeds, as_fleet_shard, /*traced=*/true);
      setup_s = seconds_since(setup_t0);
      for (std::uint64_t slot = 0; slot < total; ++slot) {
        const bool timed = slot >= w.warmup_slots;
        const bool captured = capturing && timed &&
                              capture->slots() < capture->max_slots;
        if (captured) capture_availability(f.ic, *capture);
        f.recorder->drain(events);  // drop the previous slot's events

        const std::uint64_t t0 = util::now_ns();
        f.ic.input_channel_busy_into(f.busy);
        f.traffic.next_slot_into(f.busy, f.arrivals);
        const std::uint64_t t1 = util::now_ns();
        const AllocCount a0 = alloc_count();
        const std::uint64_t t2 = util::now_ns();
        const sim::SlotStats stats = f.ic.step(f.arrivals);
        const std::uint64_t t3 = util::now_ns();
        const AllocCount a1 = alloc_count();
        const std::uint64_t t4 = util::now_ns();
        if (timed) f.record(stats);
        const std::uint64_t t5 = util::now_ns();

        gate.check_slot(stats);
        if (!timed) continue;
        if (captured) {
          capture->requests.insert(capture->requests.end(),
                                   f.arrivals.begin(), f.arrivals.end());
          capture->offsets.push_back(capture->requests.size());
        }
        if (first) {
          const std::int32_t parent = spans.add("slot", t0, t5, slot);
          spans.add("traffic", t0, t1, slot, parent);
          spans.add("step", t2, t3, slot, parent);
          spans.add("metrics", t4, t5, slot, parent);
        }
        slot_ns.push_back(t5 - t0);
        ledger.slots += 1;
        ledger.loop_ns += t5 - t0;
        ledger.traffic_ns += t1 - t0;
        ledger.step_ns += t3 - t2;
        ledger.metrics_ns += t5 - t4;
        ledger.step_samples.push_back(t3 - t2);
        ledger.step_alloc.allocs += a1.allocs - a0.allocs;
        ledger.step_alloc.bytes += a1.bytes - a0.bytes;
        f.recorder->drain(events);
        add_stage_self_times(events, ledger.stage_ns);
        counts.fresh += stats.arrivals;
        counts.offered +=
            stats.arrivals + stats.retry_attempts + stats.ingress_releases;
        counts.shed += stats.shed_overload;
        counts.retry_attempts += stats.retry_attempts;
        counts.retry_successes += stats.retry_successes;
        counts.rejected_faulted += stats.rejected_faulted;
        counts.ingress_depth_sum += f.ic.ingress_queue_depth();
      }
      if (first) out.loss_probability = f.metrics.loss_probability();
      digest = sim::state_digest(f.ic);
    }
    if (first) ledger.control = counts;
    finish_episode(digest, setup_s, counts.fresh, slot_ns, 0.0, out);
  } while (util::now_ns() < deadline_ns);
}

void run_fleet(const Workload& w, std::uint64_t seed,
               std::uint64_t deadline_ns, Gate& gate, LoopSamples& out,
               SpanBuffer* spans) {
  sim::FleetConfig config;
  config.shards = w.shards;
  config.threads_per_shard = 1;
  config.interconnect = w.interconnect;
  config.traffic = w.traffic;
  std::vector<std::uint64_t> slot_ns;
  slot_ns.reserve(w.measured_slots);
  do {
    const bool first = out.episodes.empty();
    config.seed = episode_seed(seed, out.episodes.size());
    double setup_s = 0.0;
    std::uint64_t fresh = 0;
    std::uint64_t digest = 0;
    std::uint64_t shard_p99 = 0;
    {
      const std::uint64_t setup_t0 = util::now_ns();
      sim::Fleet fleet(config);
      setup_s = seconds_since(setup_t0);
      // The caller thread is the one more that runs.
      const std::size_t threads = fleet.total_threads() + 1;
      if (threads > util::available_cpus()) {
        gate.problem("fleet runs " + std::to_string(threads) +
                     " threads on " + std::to_string(util::available_cpus()) +
                     " CPUs");
      }
      for (std::uint64_t slot = 0; slot < w.warmup_slots; ++slot) {
        fleet.step();
        gate.check_slot(fleet.last_step_stats());
      }
      fleet.reset_counters();
      for (std::uint64_t slot = w.warmup_slots;
           slot < w.warmup_slots + w.measured_slots; ++slot) {
        const std::uint64_t t0 = util::now_ns();
        fleet.step();
        const std::uint64_t t1 = util::now_ns();
        const sim::SlotStats& stats = fleet.last_step_stats();
        gate.check_slot(stats);
        if (spans != nullptr && first) {
          const std::int32_t parent = spans->add("slot", t0, t1, slot);
          spans->add("fleet.step", t0, t1, slot, parent);
        }
        slot_ns.push_back(t1 - t0);
        fresh += stats.arrivals;
      }
      if (first) {
        out.loss_probability = fleet.merged_metrics().loss_probability();
        out.shard0_seed = fleet.shard_seed(0);
        out.shard0_digest = sim::state_digest(fleet.shard_interconnect(0));
      }
      for (std::size_t i = 0; i < fleet.shards(); ++i) {
        const obs::FlightRecorder* flight = fleet.shard_flight(i);
        if (flight == nullptr) continue;
        shard_p99 = std::max(
            shard_p99,
            flight->recorder().stage_histogram(obs::Stage::kSlot).p99());
      }
      digest = fleet.fleet_digest();
    }
    finish_episode(digest, setup_s, fresh, slot_ns,
                   static_cast<double>(shard_p99), out);
  } while (util::now_ns() < deadline_ns);
}

void run_core_isolation(const Workload& w, std::uint64_t seed,
                        const ArrivalCapture& capture,
                        std::uint64_t deadline_ns, Gate& gate,
                        CoreIsolation& out) {
  const std::int32_t n = w.interconnect.n_fibers;
  const std::int32_t k = w.interconnect.scheme.k();
  const auto plane = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  const std::size_t bit_plane =
      static_cast<std::size_t>(n) * core::mask_words(k);
  core::DistributedScheduler scheduler(n, w.interconnect.scheme,
                                       w.interconnect.algorithm,
                                       w.interconnect.arbitration,
                                       derive_seeds(seed).interconnect);
  std::vector<core::PortDecision> decisions;
  std::size_t widest = 0;
  for (std::size_t s = 0; s < capture.slots(); ++s) {
    widest = std::max(widest, capture.offsets[s + 1] - capture.offsets[s]);
  }
  decisions.resize(widest);
  out.ports = n;

  const auto pass = [&](bool timed) {
    for (std::size_t s = 0; s < capture.slots(); ++s) {
      const std::span<const core::SlotRequest> requests(
          capture.requests.data() + capture.offsets[s],
          capture.offsets[s + 1] - capture.offsets[s]);
      const core::AvailabilityView view(capture.avail.data() + s * plane,
                                        capture.avail_bits.data() +
                                            s * bit_plane,
                                        n, k);
      const std::span<core::PortDecision> out_decisions(decisions.data(),
                                                        requests.size());
      const AllocCount a0 = alloc_count();
      const std::uint64_t t0 = util::now_ns();
      scheduler.schedule_slot_into(requests, view, nullptr, nullptr,
                                   out_decisions);
      const std::uint64_t t1 = util::now_ns();
      const AllocCount a1 = alloc_count();
      bool ok = true;
      for (const core::PortDecision& d : out_decisions) {
        ok = ok && (d.reason == core::RejectReason::kGranted ||
                    d.reason == core::RejectReason::kNoChannel);
      }
      gate.attempted += 1;
      if (!ok) gate.failed += 1;
      if (!timed) continue;
      out.calls += 1;
      out.ns += t1 - t0;
      out.alloc.allocs += a1.allocs - a0.allocs;
      out.alloc.bytes += a1.bytes - a0.bytes;
    }
  };
  pass(/*timed=*/false);
  do {
    pass(/*timed=*/true);
  } while (util::now_ns() < deadline_ns);
}

}  // namespace perfbench
