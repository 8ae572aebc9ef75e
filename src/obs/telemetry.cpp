#include "obs/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"

namespace wdm::obs {

const char* to_string(TraceDetail detail) noexcept {
  switch (detail) {
    case TraceDetail::kOff: return "off";
    case TraceDetail::kSlots: return "slots";
    case TraceDetail::kFibers: return "fibers";
    case TraceDetail::kFull: return "full";
  }
  return "?";
}

std::optional<TraceDetail> parse_trace_detail(std::string_view text) noexcept {
  if (text == "off") return TraceDetail::kOff;
  if (text == "slots") return TraceDetail::kSlots;
  if (text == "fibers") return TraceDetail::kFibers;
  if (text == "full") return TraceDetail::kFull;
  return std::nullopt;
}

const char* to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kSlot: return "slot";
    case Stage::kAging: return "aging";
    case Stage::kFaults: return "faults";
    case Stage::kRetry: return "retry";
    case Stage::kIngress: return "ingress";
    case Stage::kAdmission: return "admission";
    case Stage::kPartition: return "partition";
    case Stage::kFanout: return "fanout";
    case Stage::kMetrics: return "metrics";
    case Stage::kCount: break;
  }
  return "?";
}

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kNone: return "none";
    case EventKind::kStage: return "stage";
    case EventKind::kFiberSchedule: return "schedule";
    case EventKind::kAdmissionShed: return "admission-shed";
    case EventKind::kAdmissionQueue: return "admission-queue";
    case EventKind::kIngressRelease: return "ingress-release";
    case EventKind::kRetryDrain: return "retry-drain";
    case EventKind::kFaultFail: return "fault-fail";
    case EventKind::kFaultRepair: return "fault-repair";
    case EventKind::kCheckpointSave: return "checkpoint-save";
    case EventKind::kCheckpointLoad: return "checkpoint-load";
    case EventKind::kDegradeEnter: return "degraded-mode-enter";
    case EventKind::kDegradeExit: return "degraded-mode-exit";
    case EventKind::kDeadlineOverrun: return "deadline-overrun";
    case EventKind::kRateUpdate: return "rate-update";
    case EventKind::kShardQuarantine: return "shard-quarantine";
    case EventKind::kShardRestart: return "shard-restart";
    case EventKind::kShardRejoin: return "shard-rejoin";
    case EventKind::kShardFailed: return "shard-failed";
  }
  return "?";
}

TraceRecorder::TraceRecorder(TraceDetail level, std::size_t capacity)
    : level_(level),
      ring_(capacity > 0 ? capacity : 1),
      stage_hist_(static_cast<std::size_t>(Stage::kCount)) {}

void TraceRecorder::snapshot(std::vector<TraceEvent>& out) const {
  out.clear();
  const std::uint64_t held = size();
  out.reserve(static_cast<std::size_t>(held));
  for (std::uint64_t i = head_ - held; i < head_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
  }
}

void TraceRecorder::drain(std::vector<TraceEvent>& out) {
  snapshot(out);
  head_ = 0;
}

void TraceRecorder::clear() noexcept {
  head_ = 0;
  for (auto& h : stage_hist_) h.clear();
}

namespace {

/// Microseconds with sub-ns kept: Chrome trace `ts`/`dur` are micros.
std::string us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

void begin_record(std::ostream& os, bool& first) {
  os << (first ? "\n    {" : ",\n    {");
  first = false;
}

/// Process and thread names. A fabric's slot runs on one thread, so every
/// event sits on the single "slot-loop" thread, tid 0.
void emit_metadata(std::ostream& os, bool& first) {
  begin_record(os, first);
  os << "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"wdm-interconnect\"}}";
  begin_record(os, first);
  os << "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"name\": \"slot-loop\"}}";
}

void emit_event(std::ostream& os, bool& first, const TraceEvent& e,
                std::uint64_t t0) {
  begin_record(os, first);
  const bool span =
      e.kind == EventKind::kStage || e.kind == EventKind::kFiberSchedule;
  const char* name = e.kind == EventKind::kStage
                         ? to_string(static_cast<Stage>(e.detail))
                         : to_string(e.kind);
  const char* cat = "event";
  switch (e.kind) {
    case EventKind::kStage: cat = "stage"; break;
    case EventKind::kFiberSchedule: cat = "fiber"; break;
    case EventKind::kAdmissionShed:
    case EventKind::kAdmissionQueue:
    case EventKind::kIngressRelease:
    case EventKind::kRateUpdate: cat = "admission"; break;
    case EventKind::kRetryDrain: cat = "retry"; break;
    case EventKind::kFaultFail:
    case EventKind::kFaultRepair: cat = "fault"; break;
    case EventKind::kCheckpointSave:
    case EventKind::kCheckpointLoad: cat = "checkpoint"; break;
    case EventKind::kDegradeEnter:
    case EventKind::kDegradeExit:
    case EventKind::kDeadlineOverrun: cat = "overload"; break;
    case EventKind::kShardQuarantine:
    case EventKind::kShardRestart:
    case EventKind::kShardRejoin:
    case EventKind::kShardFailed: cat = "fleet"; break;
    case EventKind::kNone: break;
  }
  os << "\"name\": \"" << name << "\", \"cat\": \"" << cat
     << "\", \"ph\": \"" << (span ? "X" : "i") << "\", ";
  if (!span) os << "\"s\": \"t\", ";
  os << "\"pid\": 0, \"tid\": 0, \"ts\": "
     << us(e.ts_ns > t0 ? e.ts_ns - t0 : 0);
  if (span) os << ", \"dur\": " << us(e.dur_ns);
  os << ", \"args\": {\"slot\": " << e.slot;
  switch (e.kind) {
    case EventKind::kFiberSchedule:
      os << ", \"fiber\": " << e.fiber << ", \"offered\": " << e.a
         << ", \"granted\": " << e.b << ", \"kernel\": \""
         << (e.detail != 0 ? "degraded-approx" : "exact") << "\"";
      break;
    case EventKind::kAdmissionShed:
      os << ", \"fiber\": " << e.fiber << ", \"class\": " << e.a
         << ", \"evicted\": " << (e.detail != 0 ? "true" : "false");
      break;
    case EventKind::kAdmissionQueue:
      os << ", \"fiber\": " << e.fiber << ", \"class\": " << e.a;
      break;
    case EventKind::kIngressRelease:
      os << ", \"released\": " << e.a;
      break;
    case EventKind::kRetryDrain:
      os << ", \"attempts\": " << e.a << ", \"successes\": " << e.b;
      break;
    case EventKind::kFaultFail:
    case EventKind::kFaultRepair:
      os << ", \"fiber\": " << e.fiber << ", \"channel\": " << e.a
         << ", \"kind\": " << static_cast<unsigned>(e.detail);
      break;
    case EventKind::kDeadlineOverrun:
      os << ", \"slot_ns\": " << e.a << ", \"deadline_ns\": " << e.b;
      break;
    case EventKind::kRateUpdate:
      os << ", \"fiber\": " << e.fiber << ", \"rate_milli\": " << e.a
         << ", \"ewma_milli\": " << e.b;
      break;
    case EventKind::kShardQuarantine:
    case EventKind::kShardFailed:
      os << ", \"shard\": " << e.a << ", \"attempts\": " << e.b
         << ", \"watchdog\": " << (e.detail != 0 ? "true" : "false");
      break;
    case EventKind::kShardRestart:
      os << ", \"shard\": " << e.a << ", \"attempt\": " << e.b;
      break;
    case EventKind::kShardRejoin:
      os << ", \"shard\": " << e.a << ", \"recovered_slot\": " << e.b;
      break;
    default:
      break;
  }
  os << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceRecorder& recorder) {
  std::vector<TraceEvent> events;
  recorder.snapshot(events);
  write_chrome_trace(os, std::span<const TraceEvent>(events));
}

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events) {
  std::uint64_t t0 = ~0ULL;
  for (const auto& e : events) t0 = std::min(t0, e.ts_ns);
  if (events.empty()) t0 = 0;

  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  emit_metadata(os, first);
  for (const auto& e : events) emit_event(os, first, e, t0);
  os << "\n  ]\n}\n";
}

ChromeTraceSegmentWriter::ChromeTraceSegmentWriter(std::string base_path,
                                                   std::uint64_t max_bytes)
    : base_path_(std::move(base_path)),
      max_bytes_(max_bytes > 0 ? max_bytes : 1) {}

ChromeTraceSegmentWriter::~ChromeTraceSegmentWriter() {
  try {
    finish();
  } catch (...) {
    // A destructor-run flush failing must not terminate; callers that care
    // about the error call finish() themselves.
  }
}

void ChromeTraceSegmentWriter::open_segment() {
  std::string path = base_path_;
  if (!paths_.empty()) {
    path += '.';
    path += std::to_string(paths_.size());
  }
  os_.open(path, std::ios::binary | std::ios::trunc);
  if (!os_) throw std::runtime_error("cannot open trace segment: " + path);
  paths_.push_back(std::move(path));
  first_ = true;
  os_ << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  emit_metadata(os_, first_);
}

void ChromeTraceSegmentWriter::close_segment() {
  os_ << "\n  ]\n}\n";
  os_.flush();
  if (!os_) {
    throw std::runtime_error("trace segment write failed: " + paths_.back());
  }
  os_.close();
}

void ChromeTraceSegmentWriter::write(std::span<const TraceEvent> events) {
  if (events.empty()) return;
  if (!t0_set_) {
    // One timebase across all segments, so a multi-segment run still lines
    // up on a single timeline when segments are viewed side by side.
    t0_ = events.front().ts_ns;
    for (const auto& e : events) t0_ = std::min(t0_, e.ts_ns);
    t0_set_ = true;
  }
  if (!os_.is_open()) open_segment();
  for (const auto& e : events) {
    emit_event(os_, first_, e, t0_);
    // Rollover between events, not mid-record: every segment is standalone
    // valid JSON no matter where the byte budget lands.
    if (static_cast<std::uint64_t>(os_.tellp()) >= max_bytes_) {
      close_segment();
      open_segment();
    }
  }
}

void ChromeTraceSegmentWriter::finish() {
  if (os_.is_open()) close_segment();
}

void register_recorder(Registry& registry, const TraceRecorder& recorder) {
  registry.counter("wdm_trace_events_total",
                   "Trace events recorded (including overwritten)",
                   recorder.recorded());
  registry.counter("wdm_trace_events_dropped_total",
                   "Trace events lost to ring wrap-around",
                   recorder.dropped());
  for (std::size_t s = 0; s < static_cast<std::size_t>(Stage::kCount); ++s) {
    const auto stage = static_cast<Stage>(s);
    const auto& hist = recorder.stage_histogram(stage);
    if (hist.count() == 0) continue;
    registry.histogram(
        "wdm_stage_duration_ns", "Pipeline stage wall-clock duration", hist,
        std::string("stage=\"") + to_string(stage) + "\"");
  }
}

}  // namespace wdm::obs
