// Telemetry plane: histogram math, trace-recorder ring semantics, exporter
// output, pipeline integration, and the two invariants the subsystem must
// never break — tracing does not perturb scheduling decisions or the
// checkpoint digest, and the degradation rotation is observable and fair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "core/distributed.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/interconnect.hpp"
#include "util/rng.hpp"

namespace wdm {
namespace {

using obs::EventKind;
using obs::Histogram;
using obs::Stage;
using obs::TraceDetail;
using obs::TraceEvent;
using obs::TraceRecorder;

// ------------------------------------------------------------- histogram

TEST(ObsHistogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubCount; ++v) h.add(v);
  EXPECT_EQ(h.count(), Histogram::kSubCount);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), Histogram::kSubCount - 1);
  // One exact bucket per value below kSubCount: every quantile lands on the
  // precise rank-th sample.
  for (std::uint64_t v = 0; v < Histogram::kSubCount; ++v) {
    const double q = static_cast<double>(v + 1) /
                     static_cast<double>(Histogram::kSubCount);
    EXPECT_EQ(h.quantile(q), v) << "q=" << q;
  }
  EXPECT_EQ(h.sum(), Histogram::kSubCount * (Histogram::kSubCount - 1) / 2);
}

TEST(ObsHistogram, EmptyHistogramIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(ObsHistogram, QuantileRelativeErrorIsBounded) {
  // The log-bucket contract: a reported quantile is >= the true rank-th
  // sample and overshoots it by at most one sub-bucket (a factor of
  // 1 + 2^-kSubBits, plus 1 for the inclusive edge).
  util::Rng rng(7);
  Histogram h;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Spread across 5 decades so many octaves are exercised.
    const std::uint64_t v = rng.uniform_below(10) == 0
                                ? rng.uniform_below(100)
                                : 1000 + rng.uniform_below(100'000'000);
    samples.push_back(v);
    h.add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(samples.size())))));
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t reported = h.quantile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact + exact / Histogram::kSubCount + 1) << "q=" << q;
  }
}

TEST(ObsHistogram, MergeMatchesCombinedStream) {
  util::Rng rng(11);
  Histogram a, b, combined;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform_below(1'000'000);
    combined.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    ASSERT_EQ(a.count_at(i), combined.count_at(i)) << "bucket " << i;
  }
  for (const double q : {0.5, 0.99}) {
    EXPECT_EQ(a.quantile(q), combined.quantile(q));
  }
}

TEST(ObsHistogram, MergeEmptyAndNonEmptyAreIdentities) {
  Histogram filled;
  for (std::uint64_t v : {1ULL, 7ULL, 4096ULL}) filled.add(v);

  // empty.merge(filled) adopts filled wholesale — including min/max, which
  // must not keep the empty histogram's zero-initialized min.
  Histogram empty_lhs;
  empty_lhs.merge(filled);
  EXPECT_EQ(empty_lhs.count(), filled.count());
  EXPECT_EQ(empty_lhs.sum(), filled.sum());
  EXPECT_EQ(empty_lhs.min(), filled.min());
  EXPECT_EQ(empty_lhs.max(), filled.max());

  // filled.merge(empty) is a no-op.
  Histogram copy = filled;
  const Histogram empty_rhs;
  copy.merge(empty_rhs);
  EXPECT_EQ(copy.count(), filled.count());
  EXPECT_EQ(copy.sum(), filled.sum());
  EXPECT_EQ(copy.min(), filled.min());
  EXPECT_EQ(copy.max(), filled.max());
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    ASSERT_EQ(copy.count_at(i), filled.count_at(i)) << "bucket " << i;
  }

  // Two empties merge to an empty.
  Histogram both;
  both.merge(empty_rhs);
  EXPECT_EQ(both.count(), 0u);
  EXPECT_EQ(both.quantile(0.5), 0u);
}

TEST(ObsHistogram, MergeSaturatedTopBucketAccumulates) {
  // The top bucket's inclusive hi is ~0ULL; merging two histograms that both
  // hold it must add the counts without overflowing the edge math.
  const std::size_t top = Histogram::bucket_index(~0ULL);
  Histogram a, b;
  for (int i = 0; i < 3; ++i) a.add(~0ULL);
  for (int i = 0; i < 5; ++i) b.add(~0ULL - 1);
  ASSERT_EQ(Histogram::bucket_index(~0ULL - 1), top);
  a.merge(b);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_EQ(a.count_at(top), 8u);
  EXPECT_EQ(a.max(), ~0ULL);
  EXPECT_EQ(a.min(), ~0ULL - 1);
  EXPECT_EQ(a.quantile(1.0), ~0ULL);
}

TEST(ObsHistogram, HugeValuesStayInRange) {
  Histogram h;
  h.add(~0ULL);
  h.add(1ULL << 63);
  h.add(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), ~0ULL);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.quantile(1.0), ~0ULL);
  EXPECT_EQ(h.quantile(0.01), 3u);
  // The top bucket's inclusive edge is the full 64-bit range.
  const std::size_t top = Histogram::bucket_index(~0ULL);
  EXPECT_LT(top, Histogram::kBucketCount);
  EXPECT_EQ(Histogram::bucket_hi(top), ~0ULL);
}

TEST(ObsHistogram, BucketEdgesPartitionTheRange) {
  // Buckets tile [0, 2^64): each value lands in a bucket whose [lo, hi]
  // brackets it, and consecutive buckets touch without overlap.
  util::Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = rng.next();
    v >>= rng.uniform_below(64);
    const std::size_t idx = Histogram::bucket_index(v);
    ASSERT_LT(idx, Histogram::kBucketCount);
    EXPECT_LE(Histogram::bucket_lo(idx), v);
    EXPECT_GE(Histogram::bucket_hi(idx), v);
  }
  for (std::size_t i = 1; i < Histogram::kBucketCount; ++i) {
    ASSERT_EQ(Histogram::bucket_lo(i), Histogram::bucket_hi(i - 1) + 1)
        << "gap/overlap at bucket " << i;
  }
}

// --------------------------------------------------------- trace recorder

TEST(ObsRecorder, ParseTraceDetail) {
  EXPECT_EQ(obs::parse_trace_detail("off"), TraceDetail::kOff);
  EXPECT_EQ(obs::parse_trace_detail("slots"), TraceDetail::kSlots);
  EXPECT_EQ(obs::parse_trace_detail("fibers"), TraceDetail::kFibers);
  EXPECT_EQ(obs::parse_trace_detail("full"), TraceDetail::kFull);
  EXPECT_FALSE(obs::parse_trace_detail("verbose").has_value());
  EXPECT_FALSE(obs::parse_trace_detail("").has_value());
}

TEST(ObsRecorder, RingWrapKeepsNewestEvents) {
  TraceRecorder rec(TraceDetail::kFull, 8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent e;
    e.slot = i;
    e.kind = EventKind::kRetryDrain;
    rec.record(e);
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  EXPECT_EQ(rec.size(), 8u);
  std::vector<TraceEvent> out;
  rec.snapshot(out);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].slot, 12 + i) << "oldest-first order";
  }
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(ObsRecorder, StageTimerGatesOnLevelAndNull) {
  { const obs::StageTimer t(nullptr, Stage::kSlot, 0); }  // must be safe

  TraceRecorder off(TraceDetail::kOff, 8);
  { const obs::StageTimer t(&off, Stage::kSlot, 0); }
  EXPECT_EQ(off.recorded(), 0u) << "below the gate nothing records";

  TraceRecorder on(TraceDetail::kSlots, 8);
  { const obs::StageTimer t(&on, Stage::kPartition, 7); }
  ASSERT_EQ(on.recorded(), 1u);
  std::vector<TraceEvent> out;
  on.snapshot(out);
  EXPECT_EQ(out[0].kind, EventKind::kStage);
  EXPECT_EQ(out[0].detail, static_cast<std::uint8_t>(Stage::kPartition));
  EXPECT_EQ(out[0].slot, 7u);
  EXPECT_EQ(on.stage_histogram(Stage::kPartition).count(), 1u);
}

// --------------------------------------------------------------- exporters

TEST(ObsExport, ChromeTraceShapesSpansAndInstants) {
  TraceRecorder rec(TraceDetail::kFull, 32);
  rec.record_stage(Stage::kSlot, 3, 1000, 4000, 5, 4);
  TraceEvent fiber;
  fiber.ts_ns = 1200;
  fiber.dur_ns = 300;
  fiber.slot = 3;
  fiber.fiber = 2;
  fiber.a = 6;
  fiber.b = 4;
  fiber.kind = EventKind::kFiberSchedule;
  fiber.detail = 1;
  rec.record(fiber);
  TraceEvent shed;
  shed.ts_ns = 1100;
  shed.slot = 3;
  shed.fiber = 1;
  shed.a = 2;
  shed.kind = EventKind::kAdmissionShed;
  rec.record(shed);

  std::ostringstream os;
  obs::write_chrome_trace(os, rec);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"wdm-interconnect\""), std::string::npos);
  // One slot-loop thread carries every event.
  EXPECT_NE(out.find("\"slot-loop\""), std::string::npos);
  EXPECT_EQ(out.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"slot\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(out.find("\"kernel\": \"degraded-approx\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"admission-shed\""), std::string::npos);
  // Timestamps are normalised to the earliest event (1000 ns -> 0 us).
  EXPECT_NE(out.find("\"ts\": 0.000"), std::string::npos);
  // Braces balance: a cheap well-formedness proxy the CI checker redoes
  // with a real JSON parser.
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

TEST(ObsExport, PrometheusWriterEmitsHelpTypeAndCumulativeBuckets) {
  obs::Registry registry;
  registry.counter("wdm_widgets_total", "Widgets seen", 42);
  registry.gauge("wdm_pressure", "Current pressure", 0.5);
  Histogram h;
  for (std::uint64_t v : {1ULL, 2ULL, 2ULL, 100ULL, 5000ULL}) h.add(v);
  registry.histogram("wdm_latency_ns", "Latency", h, "stage=\"slot\"");
  registry.histogram("wdm_latency_ns", "Latency", h, "stage=\"fanout\"");

  std::ostringstream os;
  obs::write_prometheus(os, registry);
  const std::string out = os.str();

  EXPECT_NE(out.find("# HELP wdm_widgets_total Widgets seen"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE wdm_widgets_total counter"), std::string::npos);
  EXPECT_NE(out.find("wdm_widgets_total 42"), std::string::npos);
  EXPECT_NE(out.find("# TYPE wdm_pressure gauge"), std::string::npos);
  // HELP/TYPE appear once per metric name even with two label series.
  std::size_t count = 0;
  for (std::size_t pos = out.find("# TYPE wdm_latency_ns");
       pos != std::string::npos;
       pos = out.find("# TYPE wdm_latency_ns", pos + 1)) {
    count += 1;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_NE(out.find("wdm_latency_ns_bucket{stage=\"slot\",le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(out.find("wdm_latency_ns_count{stage=\"slot\"} 5"),
            std::string::npos);
  EXPECT_NE(out.find("wdm_latency_ns_sum{stage=\"slot\"} 5105"),
            std::string::npos);
}

TEST(ObsExport, LabelValueEscapingCoversBackslashQuoteNewline) {
  EXPECT_EQ(obs::escape_label_value("plain-value_0"), "plain-value_0");
  EXPECT_EQ(obs::escape_label_value("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::escape_label_value("two\nlines"), "two\\nlines");
  // All three at once, in order: \ then " then newline.
  EXPECT_EQ(obs::escape_label_value("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::escape_label_value(""), "");
}

TEST(ObsExport, HelpEscapingLeavesQuotesAlone) {
  EXPECT_EQ(obs::escape_help("plain help"), "plain help");
  EXPECT_EQ(obs::escape_help("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_help("a\nb"), "a\\nb");
  // Double quotes are legal inside HELP text and must pass through.
  EXPECT_EQ(obs::escape_help("say \"hi\""), "say \"hi\"");
}

TEST(ObsExport, LabelComposesAnEscapedPair) {
  EXPECT_EQ(obs::label("stage", "slot"), "stage=\"slot\"");
  EXPECT_EQ(obs::label("path", "a\\b\"c\nd"),
            "path=\"a\\\\b\\\"c\\nd\"");
}

TEST(ObsExport, PrometheusWriterKeepsHelpOnOneEscapedLine) {
  obs::Registry registry;
  registry.counter("wdm_tricky_total", "first line\nsecond \\ line", 7,
                   obs::label("file", "C:\\tmp\n\"x\""));

  std::ostringstream os;
  obs::write_prometheus(os, registry);
  const std::string out = os.str();

  // The HELP text must be a single physical line with escaped metachars.
  EXPECT_NE(out.find("# HELP wdm_tricky_total first line\\nsecond \\\\ line"),
            std::string::npos);
  EXPECT_EQ(out.find("second \\ line\n"), std::string::npos)
      << "raw newline/backslash leaked into the exposition";
  EXPECT_NE(
      out.find("wdm_tricky_total{file=\"C:\\\\tmp\\n\\\"x\\\"\"} 7"),
      std::string::npos);
  // Every non-comment line must still parse as `name{labels} value`.
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

// ------------------------------------------------------------ integration

std::vector<std::vector<core::SlotRequest>> make_slots(std::int32_t n_fibers,
                                                       std::int32_t k,
                                                       std::size_t n_slots,
                                                       double load) {
  util::Rng rng(21);
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
            id++, 1 + static_cast<std::int32_t>(rng.uniform_below(2)), 0});
      }
    }
  }
  return slots;
}

sim::InterconnectConfig small_config() {
  sim::InterconnectConfig cfg;
  cfg.n_fibers = 4;
  cfg.scheme = core::ConversionScheme::circular(8, 1, 1);
  cfg.seed = 9;
  return cfg;
}

TEST(ObsIntegration, PipelineEmitsSlotAndFiberEvents) {
  sim::Interconnect ic(small_config());
  TraceRecorder rec(TraceDetail::kFull);
  ic.set_telemetry(&rec);

  const auto slots = make_slots(4, 8, 16, 0.6);
  std::uint64_t granted = 0;
  for (const auto& slot : slots) granted += ic.step(slot).granted;

  std::vector<TraceEvent> events;
  rec.snapshot(events);
  std::uint64_t slot_spans = 0;
  std::uint64_t fiber_granted = 0;
  for (const auto& e : events) {
    if (e.kind == EventKind::kStage &&
        e.detail == static_cast<std::uint8_t>(Stage::kSlot)) {
      slot_spans += 1;
    }
    if (e.kind == EventKind::kFiberSchedule) fiber_granted += e.b;
  }
  EXPECT_EQ(slot_spans, slots.size()) << "one slot span per step";
  EXPECT_EQ(fiber_granted, granted)
      << "per-fiber schedule spans must account for every grant";
  EXPECT_GT(rec.stage_histogram(Stage::kPartition).count(), 0u);
  EXPECT_GT(rec.stage_histogram(Stage::kFanout).count(), 0u);
}

TEST(ObsIntegration, TracingDoesNotPerturbTheStateDigest) {
  sim::Interconnect plain(small_config());
  sim::Interconnect traced(small_config());
  TraceRecorder rec(TraceDetail::kFull);
  traced.set_telemetry(&rec);

  const auto slots = make_slots(4, 8, 32, 0.7);
  for (const auto& slot : slots) {
    const auto a = plain.step(slot);
    const auto b = traced.step(slot);
    ASSERT_EQ(a.granted, b.granted);
    ASSERT_EQ(a.rejected, b.rejected);
    ASSERT_EQ(sim::state_digest(plain), sim::state_digest(traced));
  }
  EXPECT_GT(rec.recorded(), 0u);
}

TEST(ObsIntegration, CheckpointRoundTripWithTracingOn) {
  const auto slots = make_slots(4, 8, 24, 0.7);

  sim::Interconnect original(small_config());
  TraceRecorder rec_a(TraceDetail::kSlots);
  original.set_telemetry(&rec_a);
  std::stringstream frame;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (s == 12) sim::save_checkpoint(frame, original);
    original.step(slots[s]);
  }
  const std::uint64_t want = sim::state_digest(original);

  sim::Interconnect resumed(small_config());
  TraceRecorder rec_b(TraceDetail::kSlots);
  resumed.set_telemetry(&rec_b);
  sim::load_checkpoint(frame, resumed);
  for (std::size_t s = 12; s < slots.size(); ++s) resumed.step(slots[s]);
  EXPECT_EQ(sim::state_digest(resumed), want)
      << "replay from a checkpoint must be digest-exact with tracing on";

  // The checkpoint layer itself leaves instants in the rings.
  std::vector<TraceEvent> events;
  rec_a.snapshot(events);
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.kind == EventKind::kCheckpointSave;
  }));
  rec_b.snapshot(events);
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.kind == EventKind::kCheckpointLoad;
  }));
}

// --------------------------------------------------- degradation fairness

TEST(ObsIntegration, BudgetRotationRotatesTheDegradedFibers) {
  // Homogeneous slot: every fiber holds 8 requests, so each costs the same
  // d*k = 24 exact ops. A budget of two exact ports must degrade the OTHER
  // two — and which two must rotate with SlotBudget::rotation, so sustained
  // overload does not always sacrifice the low-numbered fibers.
  const std::int32_t n = 4;
  const std::int32_t k = 8;
  const auto scheme = core::ConversionScheme::circular(k, 1, 1);  // d = 3

  std::vector<core::SlotRequest> requests;
  for (std::int32_t fiber = 0; fiber < n; ++fiber) {
    for (std::int32_t w = 0; w < k; ++w) {
      requests.push_back(core::SlotRequest{
          w % n, w, fiber, static_cast<std::uint64_t>(requests.size() + 1), 1,
          0});
    }
  }

  for (std::int32_t rot = 0; rot < n; ++rot) {
    core::DistributedScheduler sched(n, scheme,
                                     core::Algorithm::kBreakFirstAvailable,
                                     core::Arbitration::kRoundRobin, 5);
    TraceRecorder rec(TraceDetail::kFibers);
    sched.set_telemetry(&rec);
    sched.set_trace_slot(static_cast<std::uint64_t>(rot));

    core::SlotBudget budget;
    budget.op_budget = std::uint64_t{2} *
                       static_cast<std::uint64_t>(scheme.degree()) *
                       static_cast<std::uint64_t>(k);
    budget.rotation = rot;
    std::vector<core::PortDecision> decisions(requests.size());
    sched.schedule_slot_into(requests, core::AvailabilityView{}, nullptr,
                             &budget, decisions);
    EXPECT_EQ(budget.degraded_ports, 2) << "rotation " << rot;

    std::set<std::int32_t> degraded;
    std::vector<TraceEvent> events;
    rec.snapshot(events);
    for (const auto& e : events) {
      if (e.kind == EventKind::kFiberSchedule && e.detail != 0) {
        degraded.insert(e.fiber);
      }
    }
    const std::set<std::int32_t> expected{(rot + 2) % n, (rot + 3) % n};
    EXPECT_EQ(degraded, expected) << "rotation " << rot;
  }
}

TEST(ObsIntegration, RotationNeverChangesHowManyPortsDegrade) {
  // Heterogeneous slots: rotation reorders who is charged first, which may
  // shift WHICH ports degrade, but the grants must stay a valid matching and
  // the schedule must stay deterministic for a fixed rotation.
  util::Rng rng(0xB0B);
  const auto scheme = core::ConversionScheme::circular(8, 1, 1);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<core::SlotRequest> requests;
    for (std::int32_t fiber = 0; fiber < 6; ++fiber) {
      for (std::int32_t w = 0; w < 8; ++w) {
        if (rng.bernoulli(0.6)) {
          requests.push_back(core::SlotRequest{
              0, w, fiber, static_cast<std::uint64_t>(requests.size() + 1), 1,
              0});
        }
      }
    }
    for (const std::int32_t rot : {1, 4}) {
      core::DistributedScheduler a(6, scheme,
                                   core::Algorithm::kBreakFirstAvailable,
                                   core::Arbitration::kRoundRobin, 3);
      core::DistributedScheduler b(6, scheme,
                                   core::Algorithm::kBreakFirstAvailable,
                                   core::Arbitration::kRoundRobin, 3);
      core::SlotBudget budget_a;
      core::SlotBudget budget_b;
      budget_a.op_budget = budget_b.op_budget = 60;
      budget_a.rotation = budget_b.rotation = rot;
      std::vector<core::PortDecision> da(requests.size());
      std::vector<core::PortDecision> db(requests.size());
      a.schedule_slot_into(requests, core::AvailabilityView{}, nullptr,
                           &budget_a, da);
      b.schedule_slot_into(requests, core::AvailabilityView{}, nullptr,
                           &budget_b, db);
      EXPECT_EQ(budget_a.degraded_ports, budget_b.degraded_ports);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_EQ(da[i].granted, db[i].granted) << "trial " << trial;
        ASSERT_EQ(da[i].channel, db[i].channel) << "trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace wdm
