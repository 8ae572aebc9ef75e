// Decision pins for the whole slot pipeline (docs/ALGORITHMS.md §9).
//
// Each config runs the simulator end to end and pins two values: the final
// sim::state_digest and an FNV-1a hash of every per-slot SlotStats field.
// The configs cover both conversion kinds, both occupancy policies, channel,
// converter and fiber faults, deadline-bounded degradation, a 70-wavelength
// fabric whose masks span two words, a single fiber and empty slots. Any
// change to a grant, a channel, a rejection reason, an arbitration draw or
// the fault handling moves a pin. Tracing must not change decisions, so the
// traced runs are compared with the plain run in-process.
//
// Complements the differential oracle (tests/oracle/oracle_fuzz.cpp), which
// pins the kernels against Hopcroft–Karp per instance, and ArbitrationGolden
// (test_scheduler.cpp), which pins the per-port decisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/break_first_available.hpp"
#include "core/distributed.hpp"
#include "core/first_available.hpp"
#include "core/full_range.hpp"
#include "core/health.hpp"
#include "core/wave_mask.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/interconnect.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace wdm {
namespace {

std::vector<std::vector<core::SlotRequest>> make_slots(std::int32_t n_fibers,
                                                       std::int32_t k,
                                                       std::size_t n_slots,
                                                       double load,
                                                       std::uint64_t seed,
                                                       std::int32_t n_classes) {
  util::Rng rng(seed);
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
            id++, 1 + static_cast<std::int32_t>(rng.uniform_below(3)),
            n_classes > 1 ? static_cast<std::int32_t>(rng.uniform_below(
                                static_cast<std::uint64_t>(n_classes)))
                          : 0});
      }
    }
    // A sprinkle of malformed requests, so rejection accounting is pinned
    // too.
    if (rng.bernoulli(0.3)) {
      slot.push_back(core::SlotRequest{0, k + 1, 0, id++, 1, 0});
    }
  }
  return slots;
}

std::uint64_t stats_hash(const std::vector<sim::SlotStats>& stats) {
  test::Fnv1a h;
  for (const sim::SlotStats& s : stats) {
    for (const std::uint64_t v :
         {s.arrivals, s.granted, s.rejected, s.rejected_malformed,
          s.rejected_faulted, s.shed_overload, s.deferred_faulted,
          s.deferred_overload, s.ingress_releases, s.degraded_ports,
          s.retry_attempts, s.retry_successes, s.preempted, s.dropped_faulted,
          s.busy_channels}) {
      h.add(v);
    }
    for (const auto* per_class :
         {&s.arrivals_per_class, &s.granted_per_class}) {
      h.add(per_class->size());
      for (const std::uint64_t v : *per_class) h.add(v);
    }
  }
  return h.value();
}

void expect_stats_eq(const sim::SlotStats& a, const sim::SlotStats& b,
                     std::size_t slot) {
  EXPECT_EQ(a.arrivals, b.arrivals) << "slot " << slot;
  EXPECT_EQ(a.granted, b.granted) << "slot " << slot;
  EXPECT_EQ(a.rejected, b.rejected) << "slot " << slot;
  EXPECT_EQ(a.rejected_malformed, b.rejected_malformed) << "slot " << slot;
  EXPECT_EQ(a.rejected_faulted, b.rejected_faulted) << "slot " << slot;
  EXPECT_EQ(a.shed_overload, b.shed_overload) << "slot " << slot;
  EXPECT_EQ(a.deferred_faulted, b.deferred_faulted) << "slot " << slot;
  EXPECT_EQ(a.deferred_overload, b.deferred_overload) << "slot " << slot;
  EXPECT_EQ(a.ingress_releases, b.ingress_releases) << "slot " << slot;
  EXPECT_EQ(a.degraded_ports, b.degraded_ports) << "slot " << slot;
  EXPECT_EQ(a.retry_attempts, b.retry_attempts) << "slot " << slot;
  EXPECT_EQ(a.retry_successes, b.retry_successes) << "slot " << slot;
  EXPECT_EQ(a.preempted, b.preempted) << "slot " << slot;
  EXPECT_EQ(a.dropped_faulted, b.dropped_faulted) << "slot " << slot;
  EXPECT_EQ(a.busy_channels, b.busy_channels) << "slot " << slot;
  EXPECT_TRUE(a.arrivals_per_class == b.arrivals_per_class) << "slot " << slot;
  EXPECT_TRUE(a.granted_per_class == b.granted_per_class) << "slot " << slot;
}

struct RunResult {
  std::uint64_t digest = 0;
  std::vector<sim::SlotStats> stats;
};

/// Runs the whole slot sequence through a fresh interconnect and returns
/// the per-slot stats plus the final checkpoint digest.
RunResult run(const sim::InterconnectConfig& cfg,
              const std::vector<std::vector<core::SlotRequest>>& slots,
              obs::TraceDetail detail = obs::TraceDetail::kOff) {
  sim::Interconnect ic(cfg);
  obs::TraceRecorder recorder(detail);
  if (detail != obs::TraceDetail::kOff) ic.set_telemetry(&recorder);
  RunResult out;
  out.stats.reserve(slots.size());
  for (const auto& slot : slots) out.stats.push_back(ic.step(slot));
  out.digest = sim::state_digest(ic);
  return out;
}

void expect_runs_equal(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    expect_stats_eq(a.stats[s], b.stats[s], s);
  }
  EXPECT_EQ(a.digest, b.digest) << "runs must leave bit-identical state";
}

/// The pinned pair of one config.
struct Golden {
  std::uint64_t digest;
  std::uint64_t stats;
};

void expect_golden(const RunResult& got, const Golden& want) {
  EXPECT_EQ(got.digest, want.digest)
      << "state_digest 0x" << std::hex << got.digest;
  const std::uint64_t hash = stats_hash(got.stats);
  EXPECT_EQ(hash, want.stats) << "SlotStats hash 0x" << std::hex << hash;
}

TEST(DigestGolden, StateDigestSweepAcrossPoolTraceAndFaults) {
  // Both conversion kinds and occupancy policies, with and without faults,
  // pinned; the traced runs of each must match the plain run.
  const std::int32_t n = 8;
  const std::int32_t k = 12;
  const auto slots = make_slots(n, k, 48, 0.6, 7, 3);
  // [circular][with_faults]
  const Golden golden[2][2] = {
      {{0x709ab95d6ca692c1ULL, 0xc02f2809b364bb4dULL},
       {0xd800751f5ad26bbcULL, 0x5806ac33d9b987f9ULL}},
      {{0xe4a261a2a45145fdULL, 0x8be331f65aefa36cULL},
       {0xe0551c420b48447aULL, 0x281b74007dd23d63ULL}},
  };
  int combos = 0;
  for (const bool circular : {true, false}) {
    for (const bool with_faults : {false, true}) {
      sim::InterconnectConfig cfg;
      cfg.n_fibers = n;
      cfg.scheme = circular ? core::ConversionScheme::circular(k, 2, 1)
                            : core::ConversionScheme::non_circular(k, 1, 2);
      cfg.policy = circular ? sim::OccupiedPolicy::kNoDisturb
                            : sim::OccupiedPolicy::kRearrange;
      cfg.seed = 11;
      if (with_faults) {
        cfg.faults.converters = {60.0, 12.0};
        cfg.faults.channels = {80.0, 10.0};
        cfg.faults.fibers = {150.0, 20.0};
        cfg.retry.max_retries = 2;
      }
      SCOPED_TRACE((circular ? "circ" : "noncirc") +
                   std::string(with_faults ? " faults" : ""));
      const RunResult plain = run(cfg, slots);
      expect_golden(plain, golden[circular ? 1 : 0][with_faults ? 1 : 0]);
      SCOPED_TRACE("full-trace");
      expect_runs_equal(plain, run(cfg, slots, obs::TraceDetail::kFull));
      combos += 1;
    }
  }
  EXPECT_EQ(combos, 4);
}

TEST(DigestGolden, DegradedModeUsesTheSameApproxDecisions) {
  // Deadline-bounded degradation swaps in the approx kernel mid-run.
  const std::int32_t n = 8;
  const std::int32_t k = 10;
  const auto slots = make_slots(n, k, 48, 0.8, 21, 1);
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n;
  cfg.scheme = core::ConversionScheme::circular(k, 2, 2);
  cfg.seed = 3;
  cfg.degrade.op_budget = 120;  // ~2 exact ports per slot, then degrade
  const auto got = run(cfg, slots);
  expect_golden(got, {0x8bc27985e7b88522ULL, 0x1761d12282b9f885ULL});
  std::uint64_t degraded = 0;
  for (const auto& s : got.stats) degraded += s.degraded_ports;
  EXPECT_GT(degraded, 0u) << "budget never tripped; the pin tested nothing";
}

TEST(DigestGolden, WavelengthCountNotAMultipleOf64) {
  // k = 70 spans two mask words with a 6-bit tail — the layout's worst case
  // (every circular wrap crosses the word boundary).
  const std::int32_t n = 4;
  const std::int32_t k = 70;
  const auto slots = make_slots(n, k, 24, 0.5, 13, 1);
  const Golden golden[2] = {{0xad0989fd7d9e0e11ULL, 0x92d810f5f4883fbbULL},
                            {0x49c3c58292fdf692ULL, 0xe942ff4f7bda8a84ULL}};
  for (const bool circular : {true, false}) {
    sim::InterconnectConfig cfg;
    cfg.n_fibers = n;
    cfg.scheme = circular ? core::ConversionScheme::circular(k, 3, 2)
                          : core::ConversionScheme::non_circular(k, 2, 3);
    cfg.seed = 17;
    SCOPED_TRACE(circular ? "circular" : "non-circular");
    expect_golden(run(cfg, slots), golden[circular ? 1 : 0]);
  }
}

TEST(DigestGolden, SingleFiberInterconnect) {
  const std::int32_t k = 9;
  const auto slots = make_slots(1, k, 32, 0.7, 19, 2);
  sim::InterconnectConfig cfg;
  cfg.n_fibers = 1;
  cfg.scheme = core::ConversionScheme::circular(k, 1, 1);
  cfg.seed = 23;
  expect_golden(run(cfg, slots),
                {0x7dc5b00edeb09849ULL, 0xfac42fd20c525607ULL});
}

TEST(DigestGolden, EmptySlotsAndEmptyMasks) {
  // All-empty arrival vectors: the kernels see nonempty masks of zero, and
  // the aging/occupancy bookkeeping around them still runs.
  const std::int32_t n = 4;
  const std::int32_t k = 8;
  std::vector<std::vector<core::SlotRequest>> slots(16);
  slots[3] = make_slots(n, k, 1, 0.9, 29, 1)[0];  // one busy slot mid-run
  sim::InterconnectConfig cfg;
  cfg.n_fibers = n;
  cfg.scheme = core::ConversionScheme::circular(k, 1, 1);
  cfg.seed = 31;
  expect_golden(run(cfg, slots),
                {0x779bf4396db1e373ULL, 0x9f0739da7baacba9ULL});
}

TEST(DigestGolden, AllFaultedHealthMasks) {
  // Every channel converter- or channel-faulted, and the everything-cut
  // extreme where nothing survives: the decisions are pinned.
  const std::int32_t n = 4;
  const std::int32_t k = 8;
  const auto scheme = core::ConversionScheme::circular(k, 1, 1);
  const auto slot = make_slots(n, k, 1, 0.8, 37, 1)[0];
  const std::uint64_t golden[2] = {0x0d18e5d999f2cbc9ULL,
                                   0xe53eb922182c3205ULL};
  for (const bool cut_everything : {false, true}) {
    std::vector<core::HealthMask> health(
        static_cast<std::size_t>(n), core::HealthMask::healthy(k));
    if (cut_everything) {
      for (auto& h : health) h.fiber_faulted = true;
    } else {
      // Half converter-faulted, half channel-faulted on every fiber.
      for (auto& h : health) {
        for (std::size_t u = 0; u < h.channels.size(); ++u) {
          h.channels[u] = (u % 2 == 0)
                              ? core::ChannelHealth::kConverterFaulted
                              : core::ChannelHealth::kChannelFaulted;
        }
      }
    }
    core::DistributedScheduler sched(n, scheme, core::Algorithm::kAuto,
                                     core::Arbitration::kFifo, 41);
    const auto decisions = sched.schedule_slot(slot, nullptr, &health);
    ASSERT_EQ(decisions.size(), slot.size());
    test::Fnv1a h;
    for (const auto& d : decisions) {
      h.add(d.granted);
      h.add(d.channel);
      h.add(static_cast<std::uint8_t>(d.reason));
      if (cut_everything) {
        EXPECT_EQ(d.reason, core::RejectReason::kFaulted);
      }
    }
    EXPECT_EQ(h.value(), golden[cut_everything ? 1 : 0])
        << (cut_everything ? "cut" : "channel faults") << " decision hash 0x"
        << std::hex << h.value();
  }
}

TEST(DigestGolden, MaskedKernelsMatchScalarOnRandomInstances) {
  // Kernel-level pin (the oracle fuzzer runs the heavyweight version of this
  // against Hopcroft–Karp; this keeps a fast always-on copy in the tier-1
  // suite): every word kernel must return the value-returning kernel's
  // assignment on random schemes, loads and availability rows.
  util::Rng rng(53);
  core::BfaScratch scratch;
  core::ChannelAssignment masked(1);
  for (int it = 0; it < 400; ++it) {
    const auto k = static_cast<std::int32_t>(1 + rng.uniform_below(96));
    const auto d = static_cast<std::int32_t>(
        1 + rng.uniform_below(static_cast<std::uint64_t>(k)));
    const auto e = static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(d)));
    const auto f = d - 1 - e;
    const bool circular = rng.bernoulli(0.5);
    const auto scheme =
        circular ? core::ConversionScheme::circular(k, e, f)
                 : core::ConversionScheme::non_circular(k, e, f);

    core::RequestVector rv(k);
    const double load = rng.uniform01();
    for (core::Wavelength w = 0; w < k; ++w) {
      if (rng.bernoulli(load)) {
        rv.add(w, static_cast<std::int32_t>(1 + rng.uniform_below(3)));
      }
    }
    std::vector<std::uint8_t> avail(static_cast<std::size_t>(k));
    const double p_free = rng.uniform01();
    for (auto& b : avail) b = rng.bernoulli(p_free) ? 1 : 0;

    std::vector<std::uint64_t> avail_words(core::mask_words(k), 0);
    std::vector<std::uint64_t> nonempty(core::mask_words(k), 0);
    core::pack_availability(avail, k, avail_words.data());
    core::pack_counts(rv.counts(), k, nonempty.data());

    SCOPED_TRACE("iteration " + std::to_string(it) + " k=" +
                 std::to_string(k) + (circular ? " circ" : " noncirc"));
    core::ChannelAssignment spec(k);
    if (scheme.is_full_range()) {
      spec = core::full_range_schedule(rv, avail);
      core::full_range_schedule_into(rv, avail_words, nonempty, masked);
    } else if (circular) {
      spec = core::break_first_available(rv, scheme, avail);
      core::break_first_available_masked_into(rv, scheme, avail_words,
                                              nonempty, scratch, masked);
      // The approximation too, while the packed instance is at hand.
      const auto approx = core::approx_break_first_available(rv, scheme, avail);
      core::ChannelAssignment approx_masked(k);
      const auto bc_masked = core::approx_break_first_available_masked_into(
          rv, scheme, avail_words, nonempty, approx_masked);
      ASSERT_EQ(approx.break_channel, bc_masked);
      ASSERT_EQ(approx.assignment.source, approx_masked.source);
    } else {
      spec = core::first_available(rv, scheme, avail);
      core::first_available_masked_into(rv, scheme, avail_words, nonempty,
                                        masked);
    }
    ASSERT_EQ(spec.granted, masked.granted);
    ASSERT_EQ(spec.source, masked.source);
  }
}

}  // namespace
}  // namespace wdm
