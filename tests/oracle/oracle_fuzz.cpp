// Differential oracle fuzzer for the scheduling kernels.
//
// Two modes, combinable in one invocation:
//
//  * random (--cases N): N random (scheme, request-vector, mask) instances,
//    spanning circular and non-circular conversion, every degree up to k,
//    empty and random availability masks. Each instance runs the
//    scheme-appropriate kernel (First Available, Break-and-First-Available,
//    the full-range rule) and must match the
//    Hopcroft–Karp maximum on the explicit request graph exactly; the
//    single-break approximation must stay within its Theorem-3 gap bound.
//    Every instance additionally runs the production word (packed 64-bit)
//    kernels of docs/ALGORITHMS.md §9 and must reproduce the value-returning
//    kernel's assignment bit for bit — so the exhaustive small-k enumeration
//    below is also a proof-by-enumeration that the word kernels are exact.
//    A slice of cases additionally runs DistributedScheduler::schedule_slot
//    end-to-end under FIFO, round-robin or random arbitration with malformed
//    requests injected, asserting the rejection contract: no decision leaves
//    as kUndecided, granted ⇔ kGranted, malformed inputs are rejected with
//    a malformed reason and never disturb the matching granted to
//    well-formed requests, and every granted channel is in range, free,
//    healthy, reachable from the request's wavelength and used once.
//
//  * exhaustive (--exhaustive-k K): every scheme kind, every (e, f) split
//    with e + f + 1 <= k, every request vector with counts in {0, 1, 2},
//    and every availability mask, for each k = 1..K. For small k this is a
//    complete proof-by-enumeration that the O(k)/O(dk) kernels are maximum.
//
// Fault injection (PR 2) extends both modes: with --fault-prob > 0 a slice
// of random instances also carries a random core::HealthMask (converter,
// channel, and fiber faults), and --exhaustive-faults-k K enumerates every
// per-channel health vector in {healthy, converter-faulted,
// channel-faulted}^k (plus the fiber cut) against every request vector with
// counts in {0, 1, 2}. In both, the byte fault reduction
// (core::apply_health + the value-returning kernels, pre-grants written
// back) must match Hopcroft–Karp on the explicit *fault-reduced* request
// graph exactly — the degraded schedule stays a maximum matching on the
// surviving graph — and the production port path (core::fold_health + the
// word kernels) must reproduce that assignment bit for bit.
//
// Exit status is the number of failing instances (0 = clean), so the binary
// drops straight into ctest and the sanitizer CI jobs.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/break_first_available.hpp"
#include "core/distributed.hpp"
#include "core/first_available.hpp"
#include "core/full_range.hpp"
#include "core/health.hpp"
#include "core/priority.hpp"
#include "core/request_graph.hpp"
#include "core/wave_mask.hpp"
#include "graph/hopcroft_karp.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace wdm::oracle {
namespace {

using core::ConversionKind;
using core::ConversionScheme;
using core::RequestVector;

struct Stats {
  std::uint64_t instances = 0;
  std::uint64_t failures = 0;
  std::uint64_t distributed_slots = 0;
  std::uint64_t health_instances = 0;
};

/// Prints one instance compactly so a failure is reproducible by hand.
std::string describe(const ConversionScheme& scheme, const RequestVector& rv,
                     const std::vector<std::uint8_t>& mask) {
  std::string out = scheme.kind() == ConversionKind::kCircular ? "circ" : "noncirc";
  out += " k=" + std::to_string(scheme.k()) + " e=" + std::to_string(scheme.e()) +
         " f=" + std::to_string(scheme.f()) + " rv=[";
  for (core::Wavelength w = 0; w < rv.k(); ++w) {
    if (w > 0) out += ",";
    out += std::to_string(rv.count(w));
  }
  out += "] mask=[";
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(static_cast<int>(mask[i]));
  }
  out += "]";
  return out;
}

bool fail(Stats& stats, const std::string& what, const ConversionScheme& scheme,
          const RequestVector& rv, const std::vector<std::uint8_t>& mask) {
  stats.failures += 1;
  std::cerr << "FAIL: " << what << " @ " << describe(scheme, rv, mask) << "\n";
  return false;
}

/// Feasibility of a kernel result: free channels only, legal conversions,
/// no wavelength over-granted, `granted` consistent with `source`.
bool assignment_valid(const core::ChannelAssignment& a, const RequestVector& rv,
                      const ConversionScheme& scheme,
                      const std::vector<std::uint8_t>& mask) {
  if (a.k() != scheme.k()) return false;
  std::int32_t granted = 0;
  std::vector<std::int32_t> used(static_cast<std::size_t>(scheme.k()), 0);
  for (core::Channel u = 0; u < scheme.k(); ++u) {
    const core::Wavelength w = a.source[static_cast<std::size_t>(u)];
    if (w == core::kNone) continue;
    granted += 1;
    if (w < 0 || w >= scheme.k()) return false;
    if (!scheme.can_convert(w, u)) return false;
    if (!mask.empty() && mask[static_cast<std::size_t>(u)] == 0) return false;
    used[static_cast<std::size_t>(w)] += 1;
  }
  if (granted != a.granted) return false;
  for (core::Wavelength w = 0; w < scheme.k(); ++w) {
    if (used[static_cast<std::size_t>(w)] > rv.count(w)) return false;
  }
  return true;
}

/// One differential check: scheme kernel(s) vs the Hopcroft–Karp maximum on
/// the explicit request graph. Returns true if the instance is clean.
bool check_instance(Stats& stats, const ConversionScheme& scheme,
                    const RequestVector& rv,
                    const std::vector<std::uint8_t>& mask) {
  stats.instances += 1;
  const core::RequestGraph g(scheme, rv, mask);
  const auto maximum =
      static_cast<std::int32_t>(graph::hopcroft_karp(g.to_bipartite()).size());

  // Scheme-appropriate exact kernel (FA / BFA / full-range dispatch).
  const auto kernel = core::assign_maximum(rv, scheme, mask);
  if (!assignment_valid(kernel, rv, scheme, mask)) {
    return fail(stats, "kernel produced an infeasible assignment", scheme, rv, mask);
  }
  if (kernel.granted != maximum) {
    return fail(stats,
                "kernel granted " + std::to_string(kernel.granted) +
                    " != maximum " + std::to_string(maximum),
                scheme, rv, mask);
  }

  // Word kernels (docs/ALGORITHMS.md §9): pack the same instance into the
  // 64-bit word layout and demand the identical assignment — same source
  // array, not just the same cardinality.
  std::vector<std::uint64_t> avail_words(core::mask_words(scheme.k()), 0);
  std::vector<std::uint64_t> nonempty_words(core::mask_words(scheme.k()), 0);
  core::pack_availability(mask, scheme.k(), avail_words.data());
  core::pack_counts(rv.counts(), scheme.k(), nonempty_words.data());
  {
    core::ChannelAssignment masked(scheme.k());
    if (scheme.is_full_range()) {
      core::full_range_schedule_into(rv, avail_words, nonempty_words, masked);
    } else if (scheme.kind() == ConversionKind::kNonCircular) {
      core::first_available_masked_into(rv, scheme, avail_words,
                                        nonempty_words, masked);
    } else {
      core::BfaScratch scratch;
      core::break_first_available_masked_into(
          rv, scheme, avail_words, nonempty_words, scratch, masked);
    }
    if (masked.granted != kernel.granted || masked.source != kernel.source) {
      return fail(stats, "word kernel diverged from the value-returning result",
                  scheme, rv, mask);
    }
  }

  if (scheme.kind() == ConversionKind::kCircular && !scheme.is_full_range()) {
    // Theorem 3: the single-break approximation stays within its bound.
    const auto approx = core::approx_break_first_available(rv, scheme, mask);
    // The word approximation must pick the same break edge and produce the
    // same schedule as the value-returning one.
    {
      core::ChannelAssignment approx_masked(scheme.k());
      const core::Channel bc = core::approx_break_first_available_masked_into(
          rv, scheme, avail_words, nonempty_words, approx_masked);
      if (bc != approx.break_channel ||
          (bc != core::kNone &&
           approx_masked.source != approx.assignment.source)) {
        return fail(stats,
                    "word approx BFA diverged from the value-returning result",
                    scheme, rv, mask);
      }
    }
    if (approx.break_channel != core::kNone) {
      if (!assignment_valid(approx.assignment, rv, scheme, mask)) {
        return fail(stats, "approx BFA produced an infeasible assignment",
                    scheme, rv, mask);
      }
      if (maximum - approx.assignment.granted > approx.gap_bound) {
        return fail(stats,
                    "approx BFA gap " +
                        std::to_string(maximum - approx.assignment.granted) +
                        " exceeds bound " + std::to_string(approx.gap_bound),
                    scheme, rv, mask);
      }
    } else if (maximum != 0) {
      return fail(stats, "approx BFA found nothing schedulable but maximum > 0",
                  scheme, rv, mask);
    }
  }
  return true;
}

std::string describe_health(const core::HealthMask& health) {
  if (health.fiber_faulted) return "health=FIBER-CUT";
  std::string out = "health=[";
  for (std::size_t u = 0; u < health.channels.size(); ++u) {
    if (u > 0) out += ",";
    switch (health.channels[u]) {
      case core::ChannelHealth::kHealthy: out += "h"; break;
      case core::ChannelHealth::kConverterFaulted: out += "C"; break;
      case core::ChannelHealth::kChannelFaulted: out += "X"; break;
    }
  }
  return out + "]";
}

core::HealthMask random_health(util::Rng& rng, std::int32_t k) {
  core::HealthMask health = core::HealthMask::healthy(k);
  health.fiber_faulted = rng.bernoulli(0.1);
  for (auto& ch : health.channels) {
    const double u = rng.uniform01();
    ch = u < 0.15   ? core::ChannelHealth::kConverterFaulted
         : u < 0.30 ? core::ChannelHealth::kChannelFaulted
                    : core::ChannelHealth::kHealthy;
  }
  return health;
}

/// Degraded-mode differential check: the byte fault reduction
/// (core::apply_health + the value-returning kernels, pre-grants written
/// back) vs Hopcroft–Karp on the explicit fault-reduced request graph, and
/// the production port path (fault fold + word kernel) vs that assignment.
bool check_instance_health(Stats& stats, const ConversionScheme& scheme,
                           const RequestVector& rv,
                           const std::vector<std::uint8_t>& mask,
                           const core::HealthMask& health) {
  stats.instances += 1;
  stats.health_instances += 1;
  const auto report = [&](const std::string& what) {
    return fail(stats, what + " @ " + describe_health(health), scheme, rv, mask);
  };

  // Ground truth: HK maximum on the explicit fault-reduced request graph.
  const core::RequestGraph g(scheme, rv, mask, health);
  const auto maximum =
      static_cast<std::int32_t>(graph::hopcroft_karp(g.to_bipartite()).size());

  if (health.fiber_faulted) {
    // A cut fiber has no surviving edges; the production path rejects with
    // kFaulted before any kernel runs, so only the graph is checked here.
    return maximum == 0 ? true : report("cut fiber has nonzero maximum");
  }

  const auto red = core::apply_health(rv, mask, health);
  const auto kernel = core::assign_maximum(red.requests, scheme, red.availability);
  if (!assignment_valid(kernel, red.requests, scheme, red.availability)) {
    return report("reduced kernel produced an infeasible assignment");
  }
  for (core::Channel u = 0; u < scheme.k(); ++u) {
    const bool pre = red.pre_granted[static_cast<std::size_t>(u)] != 0;
    if (pre && kernel.source[static_cast<std::size_t>(u)] != core::kNone) {
      return report("kernel re-granted a pre-granted channel");
    }
    if (pre) {
      // A pre-grant is only legal on a free converter-faulted channel with a
      // same-wavelength request, and consumes exactly one of them.
      if (health.channel(u) != core::ChannelHealth::kConverterFaulted ||
          (!mask.empty() && mask[static_cast<std::size_t>(u)] == 0) ||
          rv.count(u) != red.requests.count(u) + 1) {
        return report("illegal pre-grant on channel " + std::to_string(u));
      }
    }
  }
  if (kernel.granted + red.pre_grant_count != maximum) {
    return report("reduction total " +
                  std::to_string(kernel.granted + red.pre_grant_count) +
                  " != fault-reduced maximum " + std::to_string(maximum));
  }

  // The production path: OutputPortScheduler folds the faults into the
  // packed masks and runs the word kernel. Same channels, same pre-grants.
  {
    core::OutputPortScheduler port(scheme);
    const auto production = port.assign_channels(rv, mask, health);
    auto expected = kernel;
    for (core::Channel u = 0; u < scheme.k(); ++u) {
      if (red.pre_granted[static_cast<std::size_t>(u)] == 0) continue;
      expected.source[static_cast<std::size_t>(u)] = u;
      expected.granted += 1;
    }
    if (production.granted != expected.granted ||
        production.source != expected.source) {
      return report("fault fold + word kernel diverged from apply_health");
    }
  }

  if (scheme.kind() == ConversionKind::kCircular && !scheme.is_full_range()) {
    const auto reduced_max = maximum - red.pre_grant_count;
    const auto approx =
        core::approx_break_first_available(red.requests, scheme, red.availability);
    if (approx.break_channel != core::kNone) {
      if (!assignment_valid(approx.assignment, red.requests, scheme,
                            red.availability)) {
        return report("approx BFA infeasible on the reduced instance");
      }
      if (reduced_max - approx.assignment.granted > approx.gap_bound) {
        return report("approx BFA gap exceeds bound on the reduced instance");
      }
    } else if (reduced_max != 0) {
      return report("approx BFA found nothing but reduced maximum > 0");
    }
  }
  return true;
}

/// End-to-end slot through DistributedScheduler with malformed requests
/// injected: the decision invariants of scheduler.hpp must hold, and the
/// per-fiber grant counts must still be maximum for the well-formed subset.
/// With probability `fault_prob` the slot also carries random per-fiber
/// health masks; requests to a cut fiber must come back kFaulted (which
/// outranks field validation — nothing on a dead fiber is inspected), and
/// surviving fibers must still be maximum on their fault-reduced graphs.
bool check_distributed(Stats& stats, util::Rng& rng,
                       const ConversionScheme& scheme, double fault_prob) {
  stats.distributed_slots += 1;
  const auto k = scheme.k();
  const auto n_fibers = static_cast<std::int32_t>(1 + rng.uniform_below(4));
  // The arbitration mode comes from a stream derived from the scheduler
  // seed, so the main stream — and with it every existing case — replays
  // unchanged.
  const std::uint64_t sched_seed = rng.next();
  constexpr core::Arbitration kArbitrations[] = {
      core::Arbitration::kFifo, core::Arbitration::kRoundRobin,
      core::Arbitration::kRandom};
  const core::Arbitration arbitration = kArbitrations[
      util::Rng(util::derive_stream_seed(sched_seed, 0xa4b1)).uniform_below(3)];
  core::DistributedScheduler sched(n_fibers, scheme, core::Algorithm::kAuto,
                                   arbitration, sched_seed);

  std::vector<core::SlotRequest> requests;
  const double load = rng.uniform01();
  std::uint64_t id = 0;
  for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
    for (core::Wavelength w = 0; w < k; ++w) {
      if (!rng.bernoulli(load)) continue;
      requests.push_back(core::SlotRequest{
          fib, w,
          static_cast<std::int32_t>(
              rng.uniform_below(static_cast<std::uint64_t>(n_fibers))),
          id++, 1, 0});
    }
  }
  // Inject malformed requests: each kind of field corruption, sometimes.
  std::size_t n_malformed = 0;
  const auto inject = [&](core::SlotRequest r) {
    requests.push_back(r);
    n_malformed += 1;
  };
  if (rng.bernoulli(0.5)) inject({0, k + 3, 0, id++, 1, 0});      // wavelength
  if (rng.bernoulli(0.5)) inject({0, -1, 0, id++, 1, 0});         // wavelength
  if (rng.bernoulli(0.5)) inject({0, 0, n_fibers + 2, id++, 1, 0});  // out fiber
  if (rng.bernoulli(0.5)) inject({0, 0, -4, id++, 1, 0});         // out fiber
  if (rng.bernoulli(0.5)) inject({-2, 0, 0, id++, 1, 0});         // in fiber
  if (rng.bernoulli(0.5)) inject({0, 0, 0, id++, 0, 0});          // duration
  if (rng.bernoulli(0.5)) inject({0, 0, 0, id++, 1, -1});         // priority

  // Optional per-fiber availability masks.
  std::vector<std::vector<std::uint8_t>> availability;
  const bool with_masks = rng.bernoulli(0.5);
  if (with_masks) {
    availability.resize(static_cast<std::size_t>(n_fibers));
    for (auto& m : availability) {
      m.resize(static_cast<std::size_t>(k));
      for (auto& bit : m) bit = rng.bernoulli(0.7) ? 1 : 0;
    }
  }

  // Optional per-fiber hardware health.
  std::vector<core::HealthMask> health;
  const bool with_health = fault_prob > 0.0 && rng.bernoulli(fault_prob);
  if (with_health) {
    health.reserve(static_cast<std::size_t>(n_fibers));
    for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
      health.push_back(random_health(rng, k));
    }
  }
  const auto fiber_cut = [&](std::int32_t fiber) {
    return with_health && fiber >= 0 && fiber < n_fibers &&
           health[static_cast<std::size_t>(fiber)].fiber_faulted;
  };

  const auto decisions = sched.schedule_slot(
      requests, with_masks ? &availability : nullptr,
      with_health ? &health : nullptr);
  const auto report = [&](const std::string& what) {
    stats.failures += 1;
    std::cerr << "FAIL: distributed: " << what << " (kind="
              << (scheme.kind() == ConversionKind::kCircular ? "circ" : "noncirc")
              << " k=" << k << " e=" << scheme.e() << " f=" << scheme.f()
              << " N=" << n_fibers << " reqs=" << requests.size()
              << " arbitration=" << static_cast<int>(arbitration) << ")\n";
    return false;
  };
  if (decisions.size() != requests.size()) return report("decision count");
  const std::size_t n_valid = requests.size() - n_malformed;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const auto& d = decisions[i];
    if (d.reason == core::RejectReason::kUndecided) {
      return report("kUndecided escaped at index " + std::to_string(i));
    }
    if (d.granted != (d.reason == core::RejectReason::kGranted)) {
      return report("granted flag disagrees with reason");
    }
    // Rejection-reason precedence: an out-of-range output fiber has no
    // health to consult; anything else destined to a cut fiber is kFaulted
    // before its fields are inspected.
    if (i >= n_valid) {  // the injected malformed tail
      const bool bad_out_fiber = requests[i].output_fiber < 0 ||
                                 requests[i].output_fiber >= n_fibers;
      if (!bad_out_fiber && fiber_cut(requests[i].output_fiber)) {
        if (d.reason != core::RejectReason::kFaulted) {
          return report("malformed request to a cut fiber not kFaulted");
        }
      } else if (d.granted || !core::is_malformed(d.reason)) {
        return report("malformed request not rejected as malformed");
      }
    } else if (fiber_cut(requests[i].output_fiber)) {
      if (d.reason != core::RejectReason::kFaulted) {
        return report("request to a cut fiber not rejected kFaulted");
      }
    } else if (core::is_malformed(d.reason)) {
      return report("well-formed request rejected as malformed");
    }
  }
  // Every grant names a channel the request can really use: in range, free
  // in its fiber's mask, not channel-faulted, reachable from the request's
  // wavelength (only straight through when the converter is faulted), and
  // granted to no other request on that fiber.
  std::vector<std::uint8_t> taken(
      static_cast<std::size_t>(n_fibers) * static_cast<std::size_t>(k), 0);
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i].granted) continue;
    const auto& r = requests[i];
    const core::Channel c = decisions[i].channel;
    const std::string where = "request " + std::to_string(i) +
                              " granted channel " + std::to_string(c);
    if (c < 0 || c >= k) return report(where + " out of range");
    if (r.output_fiber < 0 || r.output_fiber >= n_fibers) {
      return report(where + " on an invalid output fiber");
    }
    const auto fib = static_cast<std::size_t>(r.output_fiber);
    const auto uc = static_cast<std::size_t>(c);
    if (with_masks && availability[fib][uc] == 0) {
      return report(where + " which is occupied");
    }
    const core::ChannelHealth ch =
        with_health ? health[fib].channel(c) : core::ChannelHealth::kHealthy;
    if (ch == core::ChannelHealth::kChannelFaulted) {
      return report(where + " which is channel-faulted");
    }
    const bool reachable = ch == core::ChannelHealth::kConverterFaulted
                               ? c == r.wavelength
                               : scheme.can_convert(r.wavelength, c);
    if (!reachable) {
      return report(where + " unreachable from wavelength " +
                    std::to_string(r.wavelength));
    }
    auto& used = taken[fib * static_cast<std::size_t>(k) + uc];
    if (used != 0) return report(where + " twice on one fiber");
    used = 1;
  }
  // Per-fiber grants must equal the maximum matching of the well-formed
  // subset on that fiber's (mask, health)-reduced request graph — malformed
  // riders change nothing, and a cut fiber grants nothing.
  for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
    RequestVector rv(k);
    std::int32_t granted = 0;
    for (std::size_t i = 0; i < n_valid; ++i) {
      if (requests[i].output_fiber != fib) continue;
      rv.add(requests[i].wavelength);
      granted += decisions[i].granted ? 1 : 0;
    }
    if (fiber_cut(fib)) {
      if (granted != 0) {
        return report("fiber " + std::to_string(fib) + " is cut but granted " +
                      std::to_string(granted));
      }
      continue;
    }
    std::vector<std::uint8_t> mask =
        with_masks ? availability[static_cast<std::size_t>(fib)]
                   : std::vector<std::uint8_t>{};
    const core::HealthMask fiber_health =
        with_health ? health[static_cast<std::size_t>(fib)] : core::HealthMask{};
    const core::RequestGraph g(scheme, rv, mask, fiber_health);
    const auto maximum =
        static_cast<std::int32_t>(graph::hopcroft_karp(g.to_bipartite()).size());
    if (granted != maximum) {
      return report("fiber " + std::to_string(fib) + " granted " +
                    std::to_string(granted) + " != maximum " +
                    std::to_string(maximum));
    }
  }
  return true;
}

ConversionScheme random_scheme(util::Rng& rng, std::int32_t max_k) {
  const auto k = static_cast<std::int32_t>(
      1 + rng.uniform_below(static_cast<std::uint64_t>(max_k)));
  const auto d = static_cast<std::int32_t>(
      1 + rng.uniform_below(static_cast<std::uint64_t>(k)));
  const auto e = static_cast<std::int32_t>(
      rng.uniform_below(static_cast<std::uint64_t>(d)));
  const auto f = d - 1 - e;
  return rng.bernoulli(0.5) ? ConversionScheme::circular(k, e, f)
                            : ConversionScheme::non_circular(k, e, f);
}

void run_random(Stats& stats, std::uint64_t cases, std::uint64_t seed,
                std::int32_t max_k, double fault_prob) {
  util::Rng rng(seed);
  for (std::uint64_t c = 0; c < cases; ++c) {
    const auto scheme = random_scheme(rng, max_k);
    const auto k = scheme.k();
    RequestVector rv(k);
    const auto n_fibers = static_cast<std::int32_t>(1 + rng.uniform_below(6));
    const double load = rng.uniform01();
    for (core::Wavelength w = 0; w < k; ++w) {
      for (std::int32_t fib = 0; fib < n_fibers; ++fib) {
        if (rng.bernoulli(load)) rv.add(w);
      }
    }
    std::vector<std::uint8_t> mask;
    if (rng.bernoulli(0.5)) {
      mask.resize(static_cast<std::size_t>(k));
      const double p_free = rng.uniform01();
      for (auto& bit : mask) bit = rng.bernoulli(p_free) ? 1 : 0;
    }
    check_instance(stats, scheme, rv, mask);
    if (fault_prob > 0.0 && rng.bernoulli(fault_prob)) {
      // Same instance, degraded hardware: the reduction must stay maximum.
      check_instance_health(stats, scheme, rv, mask, random_health(rng, k));
    }
    if (c % 8 == 0) check_distributed(stats, rng, scheme, fault_prob);
  }
}

void run_exhaustive(Stats& stats, std::int32_t max_k) {
  for (std::int32_t k = 1; k <= max_k; ++k) {
    for (const auto kind : {ConversionKind::kCircular, ConversionKind::kNonCircular}) {
      for (std::int32_t e = 0; e < k; ++e) {
        for (std::int32_t f = 0; e + f + 1 <= k; ++f) {
          const auto scheme = kind == ConversionKind::kCircular
                                  ? ConversionScheme::circular(k, e, f)
                                  : ConversionScheme::non_circular(k, e, f);
          // counts in {0,1,2}^k, odometer-style.
          std::vector<std::int32_t> counts(static_cast<std::size_t>(k), 0);
          for (;;) {
            RequestVector rv(k);
            for (core::Wavelength w = 0; w < k; ++w) {
              rv.add(w, counts[static_cast<std::size_t>(w)]);
            }
            // All 2^k availability masks, with 0 meaning "no mask".
            std::vector<std::uint8_t> mask(static_cast<std::size_t>(k));
            for (std::uint64_t bits = 0; bits < (1ull << k); ++bits) {
              if (bits == 0) {
                check_instance(stats, scheme, rv, {});
                continue;
              }
              for (std::int32_t i = 0; i < k; ++i) {
                mask[static_cast<std::size_t>(i)] =
                    (bits >> i) & 1ull ? 1 : 0;
              }
              check_instance(stats, scheme, rv, mask);
            }
            // Odometer increment over {0,1,2}^k.
            std::size_t pos = 0;
            while (pos < counts.size() && counts[pos] == 2) counts[pos++] = 0;
            if (pos == counts.size()) break;
            counts[pos] += 1;
          }
        }
      }
    }
    std::fprintf(stderr, "exhaustive: k=%d done, %llu instances, %llu failures\n",
                 k, static_cast<unsigned long long>(stats.instances),
                 static_cast<unsigned long long>(stats.failures));
  }
}

/// Proof-by-enumeration for the fault reduction: every scheme shape, every
/// request vector with counts in {0, 1, 2}, the fiber cut, and every
/// per-channel health vector in {healthy, converter-faulted,
/// channel-faulted}^k, all channels free (channel faults subsume the
/// availability-mask sweep of run_exhaustive: both delete channels).
void run_exhaustive_faults(Stats& stats, std::int32_t max_k) {
  for (std::int32_t k = 1; k <= max_k; ++k) {
    for (const auto kind : {ConversionKind::kCircular, ConversionKind::kNonCircular}) {
      for (std::int32_t e = 0; e < k; ++e) {
        for (std::int32_t f = 0; e + f + 1 <= k; ++f) {
          const auto scheme = kind == ConversionKind::kCircular
                                  ? ConversionScheme::circular(k, e, f)
                                  : ConversionScheme::non_circular(k, e, f);
          std::vector<std::int32_t> counts(static_cast<std::size_t>(k), 0);
          for (;;) {
            RequestVector rv(k);
            for (core::Wavelength w = 0; w < k; ++w) {
              rv.add(w, counts[static_cast<std::size_t>(w)]);
            }
            core::HealthMask cut;
            cut.fiber_faulted = true;
            check_instance_health(stats, scheme, rv, {}, cut);
            // Odometer over {healthy, converter, channel}^k.
            core::HealthMask health = core::HealthMask::healthy(k);
            std::vector<std::int32_t> states(static_cast<std::size_t>(k), 0);
            for (;;) {
              for (std::int32_t u = 0; u < k; ++u) {
                health.channels[static_cast<std::size_t>(u)] =
                    static_cast<core::ChannelHealth>(
                        states[static_cast<std::size_t>(u)]);
              }
              check_instance_health(stats, scheme, rv, {}, health);
              std::size_t pos = 0;
              while (pos < states.size() && states[pos] == 2) states[pos++] = 0;
              if (pos == states.size()) break;
              states[pos] += 1;
            }
            std::size_t pos = 0;
            while (pos < counts.size() && counts[pos] == 2) counts[pos++] = 0;
            if (pos == counts.size()) break;
            counts[pos] += 1;
          }
        }
      }
    }
    std::fprintf(stderr,
                 "exhaustive-faults: k=%d done, %llu health instances, %llu failures\n",
                 k, static_cast<unsigned long long>(stats.health_instances),
                 static_cast<unsigned long long>(stats.failures));
  }
}

}  // namespace
}  // namespace wdm::oracle

int main(int argc, char** argv) {
  wdm::util::Cli cli("wdm_oracle_fuzz",
                     "Differential oracle fuzzer: scheme kernels vs Hopcroft-Karp");
  cli.add_option("cases", "10000", "random differential cases (0 = skip)");
  cli.add_option("seed", "1", "seed for the random mode");
  cli.add_option("max-k", "16", "largest k drawn in the random mode");
  cli.add_option("exhaustive-k", "0",
                 "enumerate every instance with counts in {0,1,2} and every "
                 "mask up to this k (0 = skip)");
  cli.add_option("fault-prob", "0.35",
                 "probability a random instance / distributed slot also runs "
                 "with a random health mask (0 = faults off)");
  cli.add_option("exhaustive-faults-k", "0",
                 "enumerate every per-channel health state in {healthy, "
                 "converter-faulted, channel-faulted} plus the fiber cut, for "
                 "counts in {0,1,2}, up to this k (0 = skip)");
  if (!cli.parse(argc, argv)) return 2;

  wdm::oracle::Stats stats;
  const auto cases = static_cast<std::uint64_t>(cli.get_int("cases"));
  if (cases > 0) {
    wdm::oracle::run_random(stats, cases,
                            static_cast<std::uint64_t>(cli.get_int("seed")),
                            static_cast<std::int32_t>(cli.get_int("max-k")),
                            cli.get_double("fault-prob"));
  }
  const auto exhaustive_k = static_cast<std::int32_t>(cli.get_int("exhaustive-k"));
  if (exhaustive_k > 0) {
    wdm::oracle::run_exhaustive(stats, exhaustive_k);
  }
  const auto exhaustive_faults_k =
      static_cast<std::int32_t>(cli.get_int("exhaustive-faults-k"));
  if (exhaustive_faults_k > 0) {
    wdm::oracle::run_exhaustive_faults(stats, exhaustive_faults_k);
  }

  std::printf(
      "oracle_fuzz: %llu instances (%llu distributed slots, %llu with faults), "
      "%llu failures\n",
      static_cast<unsigned long long>(stats.instances),
      static_cast<unsigned long long>(stats.distributed_slots),
      static_cast<unsigned long long>(stats.health_instances),
      static_cast<unsigned long long>(stats.failures));
  return stats.failures == 0 ? 0 : 1;
}
