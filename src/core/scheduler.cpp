#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "core/break_first_available.hpp"
#include "core/first_available.hpp"
#include "core/full_range.hpp"
#include "core/request_graph.hpp"
#include "core/sparse_converters.hpp"
#include "core/wave_mask.hpp"
#include "graph/glover.hpp"
#include "graph/greedy.hpp"
#include "graph/hopcroft_karp.hpp"
#include "util/check.hpp"

namespace wdm::core {

namespace {

Algorithm resolve(Algorithm requested, const ConversionScheme& scheme) {
  if (requested != Algorithm::kAuto) return requested;
  if (scheme.is_full_range()) return Algorithm::kFullRange;
  return scheme.kind() == ConversionKind::kCircular
             ? Algorithm::kBreakFirstAvailable
             : Algorithm::kFirstAvailable;
}

/// True for the paper's per-slot algorithms, which have a word kernel; the
/// graph baselines have only their value-returning form.
bool has_word_kernel(Algorithm algorithm) {
  return algorithm == Algorithm::kFirstAvailable ||
         algorithm == Algorithm::kBreakFirstAvailable ||
         algorithm == Algorithm::kApproxBfa ||
         algorithm == Algorithm::kFullRange;
}

/// Compacts a plain adjacency interval onto the available channels:
/// prefix[v] = number of available channels with index < v. An interval of
/// channels maps to an interval of compact indices (possibly empty), which
/// is how Section V's right-vertex deletion preserves convexity.
graph::Interval compact_interval(const graph::Interval& iv,
                                 const std::vector<std::int32_t>& prefix) {
  const auto lo = prefix[static_cast<std::size_t>(iv.begin)];
  const auto hi = prefix[static_cast<std::size_t>(iv.end) + 1] - 1;
  return graph::Interval{lo, hi};
}

/// Calls fn(i) for every set bit i of the k-bit mask, in ascending order.
template <typename Fn>
void for_each_set(const std::uint64_t* words, std::int32_t k, Fn&& fn) {
  for (std::size_t wi = 0; wi < mask_words(k); ++wi) {
    for (std::uint64_t bits = words[wi]; bits != 0; bits &= bits - 1) {
      fn(wi * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kGranted: return "granted";
    case RejectReason::kUndecided: return "undecided";
    case RejectReason::kNoChannel: return "no-channel";
    case RejectReason::kInvalidOutputFiber: return "invalid-output-fiber";
    case RejectReason::kInvalidWavelength: return "invalid-wavelength";
    case RejectReason::kInvalidInputFiber: return "invalid-input-fiber";
    case RejectReason::kInvalidDuration: return "invalid-duration";
    case RejectReason::kInvalidPriority: return "invalid-priority";
    case RejectReason::kBadAvailabilityMask: return "bad-availability-mask";
    case RejectReason::kInternalError: return "internal-error";
    case RejectReason::kFaulted: return "faulted";
    case RejectReason::kBadHealthMask: return "bad-health-mask";
    case RejectReason::kShedOverload: return "shed-overload";
  }
  return "unknown";
}

RejectReason validate_request(const Request& r, std::int32_t k) noexcept {
  if (r.wavelength < 0 || r.wavelength >= k) {
    return RejectReason::kInvalidWavelength;
  }
  if (r.input_fiber < 0) return RejectReason::kInvalidInputFiber;
  if (r.duration < 1) return RejectReason::kInvalidDuration;
  return RejectReason::kGranted;
}

OutputPortScheduler::OutputPortScheduler(ConversionScheme scheme,
                                         Algorithm algorithm,
                                         Arbitration arbitration,
                                         std::uint64_t seed)
    : scheme_(std::move(scheme)),
      algorithm_(resolve(algorithm, scheme_)),
      arbitration_(arbitration),
      rng_(seed),
      converter_budget_(scheme_.k()),
      rr_cursor_(static_cast<std::size_t>(scheme_.k()), 0) {
  switch (algorithm_) {
    case Algorithm::kFirstAvailable:
    case Algorithm::kGlover:
      WDM_CHECK_MSG(scheme_.kind() == ConversionKind::kNonCircular,
                    "this algorithm requires non-circular conversion");
      break;
    case Algorithm::kBreakFirstAvailable:
    case Algorithm::kApproxBfa:
      WDM_CHECK_MSG(scheme_.kind() == ConversionKind::kCircular &&
                        !scheme_.is_full_range(),
                    "this algorithm requires circular, non-full conversion");
      break;
    case Algorithm::kFullRange:
      WDM_CHECK_MSG(scheme_.is_full_range(),
                    "full-range rule requires a full-range scheme");
      break;
    case Algorithm::kHopcroftKarp:
    case Algorithm::kGreedyMaximal:
    case Algorithm::kSparseBudgeted:
      break;
    case Algorithm::kAuto:
      WDM_CHECK_MSG(false, "kAuto must have been resolved");
      break;
  }
}

void OutputPortScheduler::set_converter_budget(std::int32_t budget) {
  WDM_CHECK_MSG(budget >= 0, "converter budget must be nonnegative");
  converter_budget_ = budget;
}

ChannelAssignment OutputPortScheduler::assign_channels(
    const RequestVector& requests, std::span<const std::uint8_t> available) {
  switch (algorithm_) {
    case Algorithm::kFirstAvailable:
      return first_available(requests, scheme_, available);
    case Algorithm::kBreakFirstAvailable:
      return break_first_available(requests, scheme_, available);
    case Algorithm::kApproxBfa:
      return approx_break_first_available(requests, scheme_, available)
          .assignment;
    case Algorithm::kFullRange:
      return full_range_schedule(requests, available);
    case Algorithm::kSparseBudgeted:
      return sparse_converter_schedule(requests, scheme_, converter_budget_,
                                       available)
          .assignment;
    case Algorithm::kGlover: {
      // Compact occupied channels away so the graph stays convex, run
      // Glover's algorithm, then map matched columns back to channels.
      const std::int32_t k = scheme_.k();
      std::vector<std::int32_t> prefix(static_cast<std::size_t>(k) + 1, 0);
      std::vector<Channel> channel_of_compact;
      for (Channel v = 0; v < k; ++v) {
        const bool free =
            available.empty() || available[static_cast<std::size_t>(v)] != 0;
        prefix[static_cast<std::size_t>(v) + 1] =
            prefix[static_cast<std::size_t>(v)] + (free ? 1 : 0);
        if (free) channel_of_compact.push_back(v);
      }
      const auto wavelengths = requests.to_sorted_wavelengths();
      std::vector<graph::Interval> intervals;
      intervals.reserve(wavelengths.size());
      for (const Wavelength w : wavelengths) {
        intervals.push_back(
            compact_interval(scheme_.adjacency_plain(w), prefix));
      }
      const graph::ConvexBipartiteGraph convex(
          std::move(intervals),
          static_cast<graph::VertexId>(channel_of_compact.size()));
      const graph::Matching m = graph::glover_maximum_matching(convex);
      ChannelAssignment out(k);
      for (graph::VertexId col = 0;
           col < static_cast<graph::VertexId>(channel_of_compact.size());
           ++col) {
        const graph::VertexId j = m.left_of(col);
        if (j == graph::kNoVertex) continue;
        const Channel v = channel_of_compact[static_cast<std::size_t>(col)];
        out.source[static_cast<std::size_t>(v)] =
            wavelengths[static_cast<std::size_t>(j)];
        out.granted += 1;
      }
      return out;
    }
    case Algorithm::kHopcroftKarp:
    case Algorithm::kGreedyMaximal: {
      std::vector<std::uint8_t> mask(available.begin(), available.end());
      const RequestGraph g(scheme_, requests, std::move(mask));
      const graph::Matching m =
          algorithm_ == Algorithm::kHopcroftKarp
              ? graph::hopcroft_karp(g.to_bipartite())
              : graph::greedy_maximal_matching(g.to_bipartite(), rng_);
      ChannelAssignment out(scheme_.k());
      for (Channel v = 0; v < scheme_.k(); ++v) {
        const graph::VertexId j = m.left_of(v);
        if (j == graph::kNoVertex) continue;
        out.source[static_cast<std::size_t>(v)] = g.wavelength_of(j);
        out.granted += 1;
      }
      return out;
    }
    case Algorithm::kAuto:
      break;
  }
  util::check_failed("algorithm dispatch", __FILE__, __LINE__, "unreachable");
}

ChannelAssignment OutputPortScheduler::assign_channels(
    const RequestVector& requests, std::span<const std::uint8_t> available,
    const HealthMask& health, bool degraded) {
  const std::int32_t k = scheme_.k();
  WDM_CHECK_MSG(requests.k() == k, "request vector and scheme disagree on k");
  WDM_CHECK_MSG(available.empty() ||
                    static_cast<std::int32_t>(available.size()) == k,
                "availability mask must be empty or size k");
  WDM_CHECK_MSG(health.channels.empty() ||
                    static_cast<std::int32_t>(health.channels.size()) == k,
                "health mask must be empty or size k");
  if (health.fiber_faulted) return ChannelAssignment(k);
  size_scratch();
  pack_counts(requests.counts(), k, nonempty_bits_.data());
  run_kernel(requests, available, {}, health.all_healthy() ? nullptr : &health,
             degraded);
  return assign_scratch_;
}

std::vector<PortDecision> OutputPortScheduler::schedule(
    std::span<const Request> requests, std::span<const std::uint8_t> available,
    const HealthMask* health) {
  std::vector<PortDecision> decisions(requests.size());
  schedule_into(requests, available, health, decisions);
  return decisions;
}

void OutputPortScheduler::run_kernel(const RequestVector& requests,
                                     std::span<const std::uint8_t> available,
                                     std::span<const std::uint64_t> avail_words,
                                     const HealthMask* health, bool degraded) {
  ChannelAssignment& out = assign_scratch_;
  if (!has_word_kernel(algorithm_)) {
    // The baseline graph algorithms build their graphs afresh every call.
    if (health == nullptr) {
      out = assign_channels(requests, available);
      return;
    }
    const HealthReduction red = apply_health(requests, available, *health);
    out = assign_channels(red.requests, red.availability);
    for (Channel u = 0; u < scheme_.k(); ++u) {
      if (red.pre_granted[static_cast<std::size_t>(u)] == 0) continue;
      WDM_DCHECK(out.source[static_cast<std::size_t>(u)] == kNone);
      out.source[static_cast<std::size_t>(u)] = u;
      out.granted += 1;
    }
    return;
  }

  if (avail_words.size() != avail_bits_.size()) {
    pack_availability(available, scheme_.k(), avail_bits_.data());
    avail_words = avail_bits_;
  }
  const RequestVector* rv = &requests;
  std::span<const std::uint64_t> nonempty = nonempty_bits_;
  if (health != nullptr) {
    if (!fold_) fold_ = std::make_unique<HealthFold>();
    fold_health(requests, avail_words, nonempty, *health, *fold_);
    rv = &fold_->requests;
    avail_words = fold_->availability;
    nonempty = fold_->nonempty;
  }
  switch (algorithm_) {
    case Algorithm::kFirstAvailable:
      first_available_masked_into(*rv, scheme_, avail_words, nonempty, out);
      break;
    case Algorithm::kBreakFirstAvailable:
      if (!degraded) {
        break_first_available_masked_into(*rv, scheme_, avail_words, nonempty,
                                          bfa_scratch_, out);
        break;
      }
      // Overload degeneration: the Theorem-1 ladder — one break instead of
      // the exhaustive d-way sweep, O(k) instead of O(dk), within (d-1)/2
      // of the maximum (Theorem 3).
      [[fallthrough]];
    case Algorithm::kApproxBfa:
      approx_break_first_available_masked_into(*rv, scheme_, avail_words,
                                               nonempty, bfa_scratch_, out);
      break;
    default:  // kFullRange, the last algorithm with a word kernel
      full_range_schedule_into(*rv, avail_words, nonempty, out);
      break;
  }
  if (health != nullptr) fold_->write_pre_grants(out);
}

void OutputPortScheduler::arbitrate(std::uint32_t base,
                                    std::span<const std::uint32_t> ends,
                                    std::span<std::uint32_t> members,
                                    std::span<PortDecision> decisions) {
  // Every competing request already carries reject(kNoChannel); a grant
  // overwrites it, so nothing is left to fix up afterwards.
  const ChannelAssignment& assignment = assign_scratch_;
  if (assignment.granted == 0) return;
  const std::int32_t k = scheme_.k();
  const auto uw = [](std::int32_t x) { return static_cast<std::size_t>(x); };
  const auto lo_of = [&](std::size_t w) { return w == 0 ? base : ends[w - 1]; };
  // The granted channels, gathered branch-free so that a random grant
  // pattern costs no mispredicted branches, and the winning wavelengths.
  const std::vector<Wavelength>& source = assignment.source;
  std::uint64_t* granted = won_bits_.data();
  std::uint64_t* won = granted + mask_words(k);
  mask_zero(won, k);
  for (std::size_t word = 0; word < uw(k); word += 64) {
    std::uint64_t bits = 0;
    for (std::size_t v = word; v < std::min(uw(k), word + 64); ++v) {
      bits |= std::uint64_t{source[v] != kNone} << (v - word);
    }
    granted[word >> 6] = bits;
  }

  // Arbitration (Section III: "a random selecting or a round-robin
  // scheduling procedure") only fixes where each winning wavelength's grants
  // start in its group: FIFO at the first arrival, round-robin at the stored
  // cursor, random at the first member after a shuffle of the whole group.
  // The shuffles run in ascending wavelength order, so they make the same
  // RNG draws in the same order as a per-wavelength loop.
  if (arbitration_ == Arbitration::kRandom) {
    for_each_set(granted, k, [&](std::size_t v) { mask_set(won, source[v]); });
    for_each_set(won, k, [&](std::size_t w) {
      const std::uint32_t lo = lo_of(w);
      rng_.shuffle(members.subspan(lo, ends[w] - lo));
      grant_pos_[w] = lo;
    });
  }

  // One ascending walk over the granted channels: the t-th channel won by w
  // goes to member start + t of w's group, wrapping for round-robin. FIFO
  // and round-robin fix the start at w's first grant; the stored cursor is
  // reduced once there (it can be >= n when the group shrank since the last
  // slot).
  for_each_set(granted, k, [&](std::size_t v) {
    const std::size_t w = uw(source[v]);
    const std::uint32_t lo = lo_of(w);
    if (!mask_test(won, static_cast<std::int32_t>(w))) {
      mask_set(won, static_cast<std::int32_t>(w));
      const std::uint32_t n = ends[w] - lo;
      const std::uint32_t stored =
          arbitration_ == Arbitration::kRoundRobin ? rr_cursor_[w] : 0;
      grant_pos_[w] = lo + (stored < n ? stored : stored % n);
    }
    std::uint32_t& pos = grant_pos_[w];
    decisions[members[pos]] = PortDecision::grant(static_cast<Channel>(v));
    if (++pos == ends[w]) pos = lo;
  });

  // Only winning wavelengths move their cursor: to the member after the
  // last one granted.
  if (arbitration_ == Arbitration::kRoundRobin) {
    for_each_set(won, k, [&](std::size_t w) {
      rr_cursor_[w] = grant_pos_[w] - lo_of(w);
    });
  }
}

std::int32_t OutputPortScheduler::schedule_groups(
    std::uint32_t base, std::span<const std::uint32_t> ends,
    std::span<std::uint32_t> members, std::span<const std::uint8_t> available,
    std::span<const std::uint64_t> avail_bits, const HealthMask* health,
    bool degraded, std::span<PortDecision> decisions) {
  size_scratch();
  rv_scratch_.assign_group_sizes(base, ends, nonempty_bits_.data());
  if (health != nullptr && health->all_healthy()) health = nullptr;
  run_kernel(rv_scratch_, available, avail_bits, health, degraded);
  arbitrate(base, ends, members, decisions);
  return assign_scratch_.granted;
}

void OutputPortScheduler::schedule_into(
    std::span<const Request> requests, std::span<const std::uint8_t> available,
    const HealthMask* health, std::span<PortDecision> decisions, bool degraded,
    std::span<const std::uint64_t> avail_bits) {
  WDM_CHECK_MSG(decisions.size() == requests.size(),
                "one decision slot per request");
  const std::int32_t k = scheme_.k();

  // Externally supplied data never aborts the slot: a wrong-shaped mask or a
  // malformed request yields per-request rejections instead of a WDM_CHECK
  // throw (the kernels still enforce their contracts). A fiber cut outranks
  // per-request validation: nothing on a dead fiber is inspected.
  const bool bad_health = health != nullptr && !health->channels.empty() &&
                          static_cast<std::int32_t>(health->channels.size()) != k;
  const RejectReason fiber_reason =
      !available.empty() && static_cast<std::int32_t>(available.size()) != k
          ? RejectReason::kBadAvailabilityMask
      : bad_health                                ? RejectReason::kBadHealthMask
      : health != nullptr && health->fiber_faulted ? RejectReason::kFaulted
                                                   : RejectReason::kGranted;
  if (fiber_reason != RejectReason::kGranted) {
    std::fill(decisions.begin(), decisions.end(),
              PortDecision::reject(fiber_reason));
    return;
  }

  // One-fiber grouping: count each wavelength's valid requests (every other
  // request gets its validate_request reason), turn the counts into group
  // starts, and place the request indices stably, leaving each group's end.
  group_end_.assign(static_cast<std::size_t>(k), 0);
  for (std::size_t idx = 0; idx < requests.size(); ++idx) {
    const RejectReason reason = validate_request(requests[idx], k);
    const bool valid = reason == RejectReason::kGranted;
    decisions[idx] = PortDecision::reject(valid ? RejectReason::kNoChannel
                                                : reason);
    if (valid) group_end_[static_cast<std::size_t>(requests[idx].wavelength)]++;
  }
  std::uint32_t next = 0;
  for (std::uint32_t& end : group_end_) next += std::exchange(end, next);
  if (members_.size() < next) members_.resize(next);
  for (std::size_t idx = 0; idx < requests.size(); ++idx) {
    if (decisions[idx].reason != RejectReason::kNoChannel) continue;
    members_[group_end_[static_cast<std::size_t>(requests[idx].wavelength)]++] =
        static_cast<std::uint32_t>(idx);
  }
  schedule_groups(0, group_end_, members_, available, avail_bits, health,
                  degraded, decisions);
}

void OutputPortScheduler::size_scratch() {
  if (!grant_pos_.empty()) return;
  const std::int32_t k = scheme_.k();
  rv_scratch_ = RequestVector(k);
  assign_scratch_.reset(k);
  avail_bits_.assign(mask_words(k), 0);
  nonempty_bits_.assign(mask_words(k), 0);
  grant_pos_.resize(static_cast<std::size_t>(k));
  won_bits_.resize(2 * mask_words(k));
}

void OutputPortScheduler::reserve_batch(std::size_t max_requests) {
  const std::int32_t k = scheme_.k();
  size_scratch();
  group_end_.resize(static_cast<std::size_t>(k));
  members_.reserve(max_requests);
  // The kernel scratch otherwise sized on first use: the word kernels'
  // candidate and rotation words, and the fault fold.
  if (has_word_kernel(algorithm_)) {
    bfa_scratch_.reserve(k);
    if (!fold_) fold_ = std::make_unique<HealthFold>();
    // Folding the empty instance sizes the fold's arrays.
    fold_health(rv_scratch_, avail_bits_, nonempty_bits_, HealthMask{}, *fold_);
  }
}

void OutputPortScheduler::save_state(util::SnapshotWriter& w) const {
  const auto rng = rng_.state();
  for (const auto word : rng.s) w.u64(word);
  w.u64(rng.split_counter);
  w.u64(rr_cursor_.size());
  for (const auto c : rr_cursor_) w.u32(c);
}

void OutputPortScheduler::restore_state(util::SnapshotReader& r) {
  util::Rng::State rng;
  for (auto& word : rng.s) word = r.u64();
  rng.split_counter = r.u64();
  rng_.restore(rng);
  const std::uint64_t n = r.u64();
  WDM_CHECK_MSG(n == rr_cursor_.size(),
                "snapshot round-robin state does not match this port's k");
  for (auto& c : rr_cursor_) c = r.u32();
}

}  // namespace wdm::core
