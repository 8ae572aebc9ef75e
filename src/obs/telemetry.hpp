// Slot-event tracing and stage profiling for the scheduling pipeline.
//
// The pipeline answers "which slot, which output fiber, which stage" with a
// TraceRecorder: a preallocated ring buffer of fixed-size TraceEvents that
// the interconnect, scheduler, admission plane, fault injector, and
// checkpoint layer append to as a slot executes. The warm path stays inside
// the zero-allocation contract (tests/test_zero_alloc.cpp): record() is one
// indexed store into the preallocated ring and StageTimer is two clock reads
// and a store. A fabric's slot runs on one thread, so the ring has a single
// writer and needs no locks or atomics; per-fiber events land in fiber order.
//
// Telemetry is off by default and costs one null-pointer branch when
// disabled: every instrumentation site guards with
// `if (rec != nullptr && rec->at(level))`, both inlinable from this header.
// Recorded wall-clock timestamps live only here — never in
// sim::state_digest — so checkpoint/replay stays bit-exact with tracing on.
//
// Export: obs::write_chrome_trace emits Chrome/Perfetto `trace_event` JSON
// (open in chrome://tracing or ui.perfetto.dev), and register_recorder puts
// the per-stage latency histograms on an obs::Registry for Prometheus
// exposition (docs/OBSERVABILITY.md documents the schema).
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"
#include "util/timer.hpp"

namespace wdm::obs {

/// How much a recorder captures. Levels are cumulative; the CLI surface is
/// `--trace-detail {off,slots,fibers,full}`.
enum class TraceDetail : std::uint8_t {
  kOff = 0,     ///< record nothing (and instrumentation sites stay cold)
  kSlots = 1,   ///< slot + stage spans, fault / checkpoint / mode instants
  kFibers = 2,  ///< + one span per scheduled output fiber (kernel kind)
  kFull = 3,    ///< + per-request admission and ingress instants
};

const char* to_string(TraceDetail detail) noexcept;
/// Parses "off" / "slots" / "fibers" / "full"; nullopt on anything else.
std::optional<TraceDetail> parse_trace_detail(std::string_view text) noexcept;

/// Pipeline stages profiled by StageTimer (one latency histogram each).
enum class Stage : std::uint8_t {
  kSlot = 0,   ///< the whole Interconnect::step
  kAging,      ///< connection aging + expiry
  kFaults,     ///< fault injector tick + health rebuild
  kRetry,      ///< retry-queue drain + re-offer scheduling
  kIngress,    ///< admission bucket refill + ingress-queue release batch
  kAdmission,  ///< token-bucket offer() pass over fresh arrivals
  kPartition,  ///< per-slot request grouping (validate, count, place)
  kFanout,     ///< per-fiber schedule dispatch
  kMetrics,    ///< per-slot stats recording in the driver loop
  kCount,      ///< number of stages (array bound, not a stage)
};

const char* to_string(Stage stage) noexcept;

/// What a TraceEvent describes. Fixed-size payloads a/b and `detail` are
/// interpreted per kind (see docs/OBSERVABILITY.md for the full schema).
enum class EventKind : std::uint8_t {
  kNone = 0,        ///< default-constructed event, never recorded
  kStage,           ///< span: detail = Stage, a/b free per stage
  kFiberSchedule,   ///< span: fiber scheduled; a = offered, b = granted,
                    ///< detail = 1 when degraded to the O(k) approximation
  kAdmissionShed,   ///< instant: request shed; a = priority,
                    ///< detail = 1 when it was an eviction of a queued entry
  kAdmissionQueue,  ///< instant: request parked in the ingress queue
  kIngressRelease,  ///< instant: a = requests released from the queue
  kRetryDrain,      ///< instant: a = retries re-offered, b = successes
  kFaultFail,       ///< instant: component failed; detail = FaultKind
  kFaultRepair,     ///< instant: component repaired; detail = FaultKind
  kCheckpointSave,  ///< instant: checkpoint written
  kCheckpointLoad,  ///< instant: checkpoint restored
  kDegradeEnter,    ///< instant: hysteresis latched degraded mode
  kDegradeExit,     ///< instant: hysteresis released degraded mode
  kDeadlineOverrun, ///< instant: slot overran its wall-clock deadline;
                    ///< a = measured slot ns, b = deadline ns (0 on replay)
  kRateUpdate,      ///< instant: adaptive admission moved a fiber's token
                    ///< rate; a = new rate, b = grant EWMA (milli-tokens)
  kShardQuarantine, ///< instant: fleet shard quarantined; a = shard,
                    ///< b = restart attempts consumed, detail = 1 when the
                    ///< watchdog (not a crash) triggered it
  kShardRestart,    ///< instant: shard restart attempt began; a = shard,
                    ///< b = attempt number (1-based)
  kShardRejoin,     ///< instant: shard rejoined the barrier; a = shard,
                    ///< b = checkpoint slot it recovered from (0 = fresh)
  kShardFailed,     ///< instant: restart budget exhausted; a = shard,
                    ///< b = attempts consumed, detail = 1 when watchdog
};

const char* to_string(EventKind kind) noexcept;

/// One fixed-size slot event. POD; the ring holds these by value.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< steady-clock start (util::now_ns)
  std::uint64_t dur_ns = 0;  ///< span length; 0 for instants
  std::uint64_t slot = 0;    ///< interconnect slot index
  std::uint64_t a = 0;       ///< payload, per kind
  std::uint64_t b = 0;       ///< payload, per kind
  std::int32_t fiber = -1;   ///< output (or input) fiber, -1 = n/a
  EventKind kind = EventKind::kNone;
  std::uint8_t detail = 0;   ///< Stage / kernel kind / FaultKind, per kind
};

/// Preallocated overwrite-oldest ring of TraceEvents plus one latency
/// histogram per Stage. Single-writer by construction: all record() calls
/// happen on the slot-loop thread, so the warm path needs no locks and no
/// allocation.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit TraceRecorder(TraceDetail level,
                         std::size_t capacity = kDefaultCapacity);

  TraceDetail level() const noexcept { return level_; }
  /// The disabled-overhead guard: one comparison, inlined at every site.
  bool at(TraceDetail detail) const noexcept { return level_ >= detail; }

  void record(const TraceEvent& event) noexcept {
    ring_[static_cast<std::size_t>(head_ % ring_.size())] = event;
    head_ += 1;
  }

  /// Records a kStage span and feeds the stage's latency histogram.
  void record_stage(Stage stage, std::uint64_t slot, std::uint64_t t0_ns,
                    std::uint64_t t1_ns, std::uint64_t a = 0,
                    std::uint64_t b = 0) noexcept {
    TraceEvent e;
    e.ts_ns = t0_ns;
    e.dur_ns = t1_ns - t0_ns;
    e.slot = slot;
    e.a = a;
    e.b = b;
    e.kind = EventKind::kStage;
    e.detail = static_cast<std::uint8_t>(stage);
    record(e);
    stage_hist_[static_cast<std::size_t>(stage)].add(e.dur_ns);
  }

  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events recorded over the recorder's lifetime (including overwritten).
  std::uint64_t recorded() const noexcept { return head_; }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const noexcept {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }
  /// Events currently held.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(
        head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size()));
  }

  /// Copies the held events oldest-first into `out`.
  void snapshot(std::vector<TraceEvent>& out) const;

  /// snapshot() + empties the ring, keeping the stage histograms (their
  /// samples were never in the ring). Segment-rotated export uses this to
  /// stream events out before the ring wraps, without losing latency stats.
  void drain(std::vector<TraceEvent>& out);

  Histogram& stage_histogram(Stage stage) noexcept {
    return stage_hist_[static_cast<std::size_t>(stage)];
  }
  const Histogram& stage_histogram(Stage stage) const noexcept {
    return stage_hist_[static_cast<std::size_t>(stage)];
  }

  void clear() noexcept;

 private:
  TraceDetail level_;
  std::vector<TraceEvent> ring_;
  std::uint64_t head_ = 0;  // total events ever recorded
  std::vector<Histogram> stage_hist_;  // one per Stage
};

/// RAII span timer: reads the clock on construction and records a kStage
/// span (+ histogram sample) on destruction. With a null recorder, or one
/// below `gate`, both ends collapse to a branch — the telemetry-off cost.
class StageTimer {
 public:
  StageTimer(TraceRecorder* recorder, Stage stage, std::uint64_t slot,
             TraceDetail gate = TraceDetail::kSlots) noexcept
      : recorder_(recorder != nullptr && recorder->at(gate) ? recorder
                                                            : nullptr),
        stage_(stage),
        slot_(slot),
        t0_ns_(recorder_ != nullptr ? util::now_ns() : 0) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() {
    if (recorder_ != nullptr) {
      recorder_->record_stage(stage_, slot_, t0_ns_, util::now_ns());
    }
  }

 private:
  TraceRecorder* recorder_;
  Stage stage_;
  std::uint64_t slot_;
  std::uint64_t t0_ns_;
};

/// Writes the recorder's events as Chrome/Perfetto `trace_event` JSON
/// (the `{"traceEvents": [...]}` object form, timestamps normalised to the
/// earliest event). Loads directly in chrome://tracing and ui.perfetto.dev.
void write_chrome_trace(std::ostream& os, const TraceRecorder& recorder);

/// Same trace JSON from a raw event batch (e.g. a flight-recorder snapshot
/// captured at quarantine time); the recorder overload delegates here.
void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events);

/// Streaming, segment-rotated Chrome-trace export for long soaks: feed it
/// event batches (typically TraceRecorder::drain every few hundred slots)
/// and it writes them through to disk, starting a new file whenever the
/// current segment crosses `max_bytes`. Every segment is standalone valid
/// trace JSON (own metadata records, shared timebase), named
/// `path`, `path.1`, `path.2`, ... so a run's telemetry footprint is
/// bounded per file instead of buffered whole in the ring.
class ChromeTraceSegmentWriter {
 public:
  /// `max_bytes` is a soft per-segment bound: segments roll over at the
  /// first event boundary past it (records are never split).
  ChromeTraceSegmentWriter(std::string base_path, std::uint64_t max_bytes);
  ChromeTraceSegmentWriter(const ChromeTraceSegmentWriter&) = delete;
  ChromeTraceSegmentWriter& operator=(const ChromeTraceSegmentWriter&) =
      delete;
  ~ChromeTraceSegmentWriter();

  /// Appends a batch of events, rolling segments as the byte bound is hit.
  void write(std::span<const TraceEvent> events);
  /// Closes the open segment (making it valid JSON on disk). write() after
  /// finish() starts a fresh segment. Throws on stream failure.
  void finish();

  /// Paths of every segment started so far, in order.
  const std::vector<std::string>& segment_paths() const noexcept {
    return paths_;
  }

 private:
  void open_segment();
  void close_segment();

  std::string base_path_;
  std::uint64_t max_bytes_;
  std::ofstream os_;
  std::vector<std::string> paths_;
  bool first_ = true;  // no record emitted yet this segment
  bool t0_set_ = false;
  std::uint64_t t0_ = 0;  // shared timestamp origin across segments
};

class Registry;

/// Registers the recorder's per-stage duration histograms
/// (wdm_stage_duration_ns{stage=...}) and ring counters on a Registry.
void register_recorder(Registry& registry, const TraceRecorder& recorder);

}  // namespace wdm::obs
