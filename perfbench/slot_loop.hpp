// The benchmark's closed slot loops: one driver thread runs slot after slot
// (traffic, then Interconnect::step, then metrics, or one Fleet::step), and
// the next slot starts when the previous one completes. A run repeats whole
// episodes (set-up, warm-up, timed slots) until its time is up.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/distributed.hpp"
#include "sim/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Correctness gate. A slot fails when its SlotStats break the conservation
/// identity or reject anything as malformed (core::RejectReason::
/// kInternalError is counted there too); anything else that makes the run
/// wrong — a digest mismatch, a thread budget overrun — is a problem.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void check_slot(const wdm::sim::SlotStats& stats) noexcept;
  void problem(std::string what) { problems.push_back(std::move(what)); }
  /// Records a problem unless `got == want`.
  void expect_digest(const char* what, std::uint64_t got, std::uint64_t want);
  bool ok() const noexcept { return failed == 0 && problems.empty(); }
};

/// Nearest-rank quantile of `v` (0 when empty).
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(static_cast<double>(v.size()) * q));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

/// Host times of every timed slot of a run, kept as counts at 1/1024
/// relative resolution in a fixed table, so the run-wide p99 needs no memory
/// that grows with the run (peak_rss_mb would otherwise read the benchmark).
class SlotTimes {
 public:
  SlotTimes() : counts_(kBuckets, 0) {}
  void add(std::uint64_t ns) noexcept;
  /// Nearest-rank quantile, as the midpoint of its bucket (exact below
  /// 1024 ns); 0 when empty.
  double quantile(double q) const noexcept;

 private:
  static constexpr unsigned kSubBits = 10;
  static constexpr unsigned kMaxExponent = 40;  // ~18 minutes; larger clamp
  static constexpr std::size_t kBuckets =
      (kMaxExponent - kSubBits + 2) << kSubBits;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// One episode's figures.
struct Episode {
  double setup_s = 0.0;
  double requests_per_s = 0.0;  ///< fresh arrivals over timed slot time
  double p50_ns = 0.0;          ///< median of the episode's timed slots
  /// Fleet episodes: the largest shard's Interconnect::step p99, from the
  /// shards' flight-recorder kSlot histograms.
  double shard_step_p99_max_ns = 0.0;
};

/// Episode `episode` of a run with seed `seed` runs on this master seed: the
/// seed itself first, then labelled substreams of it. A run thus averages
/// over independent instances of its workload and stays a function of its
/// seed; episode 0 is the instance sim::run_simulation would build.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode);

/// Measurements of a run's episodes.
struct LoopSamples {
  std::vector<Episode> episodes;
  SlotTimes slot_times;                ///< every timed slot of the run
  std::vector<std::uint64_t> digests;  ///< final digest of each episode
  double loss_probability = 0.0;       ///< timed slots of episode 0
  // Fleet episodes only.
  std::uint64_t shard0_seed = 0;       ///< Fleet::shard_seed(0), episode 0
  std::uint64_t shard0_digest = 0;     ///< state_digest of shard 0, episode 0
};

/// A run's end-to-end figures. The host this benchmark was tuned on changes
/// speed by up to half from one few-second stretch to the next (shared
/// cores), so a median over episodes flips between its fast and slow state
/// from run to run. Each figure is therefore taken at the run's slow end:
/// it reads the slow state whenever about a tenth of the run saw it. The
/// p99 of all the run's slots is already a slow-state figure.
struct Summary {
  double requests_per_s = 0.0;  ///< 10th percentile over episodes
  double p50_ns = 0.0;          ///< 90th percentile of episode medians
  double p99_ns = 0.0;          ///< 99th percentile of all timed slots
  double setup_s = 0.0;         ///< median over episodes
};
Summary summarize(const LoopSamples& s);

/// Records a problem unless `a` and `b` agree on every episode both ran.
void expect_same_digests(const char* what, const LoopSamples& a,
                         const LoopSamples& b, Gate& gate);

/// Step stages in the ledger, in obs::Stage order (kSlot and kMetrics are
/// not step stages). Self time: partition and fan-out spans nested in a
/// retry or ingress span count as partition / fan-out, not twice.
enum LedgerStage : std::size_t {
  kAging,
  kFaults,
  kRetry,
  kIngress,
  kAdmission,
  kPartition,
  kFanout,
  kLedgerStages
};
inline constexpr std::array<const char*, kLedgerStages> kLedgerStageNames = {
    "aging", "faults", "retry", "ingress", "admission", "partition", "fanout"};

/// Control-plane counts over an episode's timed slots; exact, so a change
/// that only affects speed leaves them identical.
struct ControlPlane {
  std::uint64_t fresh = 0;
  std::uint64_t offered = 0;  ///< fresh + retry attempts + ingress releases
  std::uint64_t shed = 0;
  std::uint64_t retry_attempts = 0;
  std::uint64_t retry_successes = 0;
  std::uint64_t rejected_faulted = 0;
  std::uint64_t ingress_depth_sum = 0;  ///< ingress queue depth after each slot
};

/// Traced measurements of the single-fabric loop, summed over the timed
/// slots of every traced episode.
struct Ledger {
  std::uint64_t slots = 0;
  std::uint64_t loop_ns = 0;
  std::uint64_t traffic_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t metrics_ns = 0;
  std::array<std::int64_t, kLedgerStages> stage_ns{};
  AllocCount step_alloc;
  std::vector<std::uint64_t> step_samples;
  ControlPlane control;  ///< episode 0's
};

/// The workload's own arrival stream, with the availability plane each slot
/// began with, for the scheduler isolation pass.
struct ArrivalCapture {
  std::size_t max_slots = 512;
  std::vector<wdm::core::SlotRequest> requests;
  /// Slot s holds requests[offsets[s] .. offsets[s+1]).
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint8_t> avail;        ///< N*k bytes per slot
  std::vector<std::uint64_t> avail_bits;  ///< N*mask_words(k) words per slot
  std::size_t slots() const noexcept { return offsets.size() - 1; }
};

/// DistributedScheduler::schedule_slot_into over a captured stream.
struct CoreIsolation {
  std::uint64_t calls = 0;  ///< timed schedule_slot_into calls (one per slot)
  std::uint64_t ns = 0;
  std::int32_t ports = 0;
  AllocCount alloc;
};

/// Single-fabric episodes until `deadline_ns` (at least one), untraced.
/// `master_seed` seeds the fabric as sim::run_simulation does; with
/// `as_fleet_shard` the fabric is built exactly like a sim::Fleet shard
/// (worst-case scratch reserved, flight recorder attached).
void run_single(const Workload& w, std::uint64_t master_seed,
                bool as_fleet_shard, std::uint64_t deadline_ns, Gate& gate,
                LoopSamples& out);

/// As run_single, with the step stages recorded at obs::TraceDetail::kSlots,
/// benchmark spans around each layer call (first episode only, which keeps
/// the trace file small), and allocation counts. When `capture` is non-null
/// the first episode's timed slots are captured.
void run_single_traced(const Workload& w, std::uint64_t master_seed,
                       bool as_fleet_shard, std::uint64_t deadline_ns,
                       Gate& gate, LoopSamples& out, Ledger& ledger,
                       SpanBuffer& spans, ArrivalCapture* capture);

/// Fleet episodes until `deadline_ns` (at least one); `spans`, when
/// non-null, receives the first episode's Fleet::step spans.
void run_fleet(const Workload& w, std::uint64_t seed,
               std::uint64_t deadline_ns, Gate& gate, LoopSamples& out,
               SpanBuffer* spans);

/// Replays `capture` through a fresh DistributedScheduler shaped like the
/// workload's fabric: one untimed warm pass, then timed passes until
/// `deadline_ns` (at least one).
void run_core_isolation(const Workload& w, std::uint64_t seed,
                        const ArrivalCapture& capture,
                        std::uint64_t deadline_ns, Gate& gate,
                        CoreIsolation& out);

}  // namespace perfbench
