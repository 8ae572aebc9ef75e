#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

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

/// Calls fn(i) for every i in [0, n) with pred(i), in ascending order. The
/// predicate is gathered branch-free into 64-bit words and the hits are
/// visited with countr_zero, so a random hit pattern costs no mispredicted
/// branches.
template <typename Pred, typename Fn>
void for_each_where(std::int32_t n, Pred&& pred, Fn&& fn) {
  for (std::int32_t base = 0; base < n; base += 64) {
    const std::int32_t end = std::min(n, base + 64);
    std::uint64_t hits = 0;
    for (std::int32_t i = base; i < end; ++i) {
      hits |= std::uint64_t{pred(i)} << static_cast<std::uint32_t>(i - base);
    }
    for (; hits != 0; hits &= hits - 1) fn(base + std::countr_zero(hits));
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
      rr_cursor_(static_cast<std::size_t>(scheme_.k()), 0),
      rv_scratch_(scheme_.k()),
      assign_scratch_(scheme_.k()),
      avail_bits_(mask_words(scheme_.k()), 0),
      nonempty_bits_(mask_words(scheme_.k()), 0) {
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
                                               nonempty, out);
      break;
    default:  // kFullRange, the last algorithm with a word kernel
      full_range_schedule_into(*rv, avail_words, nonempty, out);
      break;
  }
  if (health != nullptr) fold_->write_pre_grants(out);
}

template <typename WaveFn>
void OutputPortScheduler::arbitrate_into(std::size_t n_requests,
                                         WaveFn&& wavelength_of,
                                         std::span<PortDecision> decisions) {
  // Every competing request already carries reject(kNoChannel); a grant
  // overwrites it, so nothing is left to fix up afterwards.
  const ChannelAssignment& assignment = assign_scratch_;
  if (assignment.granted == 0) return;
  const std::int32_t k = scheme_.k();
  const auto uk = static_cast<std::size_t>(k);
  const auto uw = [](std::int32_t x) { return static_cast<std::size_t>(x); };

  // Competing request indices per wavelength, in arrival order, as CSR. The
  // group sizes are the request vector's counts, so one backward scatter
  // over the requests fills the groups and leaves each cursor at its
  // group's first member.
  const std::vector<std::int32_t>& counts = rv_scratch_.counts();
  member_offsets_.resize(uk + 1);
  member_offsets_[0] = 0;
  for (std::size_t w = 0; w < uk; ++w) {
    member_offsets_[w + 1] =
        member_offsets_[w] + static_cast<std::uint32_t>(counts[w]);
  }
  member_flat_.resize(member_offsets_[uk]);
  csr_cursor_.assign(member_offsets_.begin() + 1, member_offsets_.end());
  for (std::size_t idx = n_requests; idx-- > 0;) {
    if (decisions[idx].reason != RejectReason::kNoChannel) continue;
    member_flat_[--csr_cursor_[uw(wavelength_of(idx))]] =
        static_cast<std::uint32_t>(idx);
  }

  // Arbitration (Section III: "a random selecting or a round-robin
  // scheduling procedure") only fixes where each winning wavelength's grants
  // start in its group: FIFO at the first arrival, round-robin at the stored
  // cursor, random at the first member after a shuffle. Winning wavelengths
  // are visited in ascending order, so the shuffles make the same RNG draws
  // in the same order as a per-wavelength loop.
  if (arbitration_ != Arbitration::kFifo) {
    won_count_.assign(uk + 1, 0);  // bin 0 counts unassigned channels
    for (const Wavelength w : assignment.source) won_count_[uw(w + 1)] += 1;
    const auto won = [&](Wavelength w) { return won_count_[uw(w) + 1] != 0; };
    for_each_where(k, won, [&](Wavelength won_w) {
      const std::size_t w = uw(won_w);
      const std::uint32_t n_won = won_count_[w + 1];
      const std::uint32_t lo = member_offsets_[w];
      const std::uint32_t n = member_offsets_[w + 1] - lo;
      WDM_DCHECK(n_won <= n);
      if (arbitration_ == Arbitration::kRandom) {
        rng_.shuffle(std::span<std::uint32_t>(member_flat_.data() + lo, n));
        return;
      }
      // The stored cursor is reduced once (it can be >= n when the group
      // shrank since the last slot); only winning wavelengths move it.
      const std::uint32_t stored = rr_cursor_[w];
      const std::uint32_t start = stored < n ? stored : stored % n;
      csr_cursor_[w] = lo + start;
      const std::uint32_t next = start + n_won;
      rr_cursor_[w] = next >= n ? next - n : next;
    });
  }

  // One ascending walk over the granted channels: the t-th channel won by w
  // goes to member start + t of w's group, wrapping for round-robin.
  const std::vector<Wavelength>& source = assignment.source;
  for_each_where(
      k, [&](Channel v) { return source[uw(v)] != kNone; },
      [&](Channel v) {
        const std::size_t w = uw(source[uw(v)]);
        std::uint32_t& pos = csr_cursor_[w];
        decisions[member_flat_[pos]] = PortDecision::grant(v);
        if (++pos == member_offsets_[w + 1]) pos = member_offsets_[w];
      });
}

template <typename RequestAt>
void OutputPortScheduler::schedule_port(
    std::size_t n_requests, RequestAt&& request_at,
    std::span<const std::uint8_t> available,
    std::span<const std::uint64_t> avail_bits, const HealthMask* health,
    std::span<PortDecision> decisions, bool degraded) {
  const std::int32_t k = scheme_.k();

  // Externally supplied data never aborts the slot: a wrong-shaped mask or a
  // malformed request yields per-request rejections instead of a WDM_CHECK
  // throw (the kernels below still enforce their contracts). Every other
  // request enters as a capacity rejection that a grant overwrites.
  const bool bad_mask =
      !available.empty() && static_cast<std::int32_t>(available.size()) != k;
  std::fill(decisions.begin(), decisions.end(),
            PortDecision::reject(bad_mask ? RejectReason::kBadAvailabilityMask
                                          : RejectReason::kNoChannel));
  if (bad_mask) return;
  if (health != nullptr) {
    if (!health->channels.empty() &&
        static_cast<std::int32_t>(health->channels.size()) != k) {
      std::fill(decisions.begin(), decisions.end(),
                PortDecision::reject(RejectReason::kBadHealthMask));
      return;
    }
    // A fiber cut outranks per-request validation: nothing on a dead fiber
    // is inspected, everything is rejected as faulted.
    if (health->fiber_faulted) {
      std::fill(decisions.begin(), decisions.end(),
                PortDecision::reject(RejectReason::kFaulted));
      return;
    }
    if (health->all_healthy()) health = nullptr;
  }

  // The accept test is a single predicted branch; the cold path names the
  // reason with validate_request itself, so the field order is its order.
  mask_zero(nonempty_bits_.data(), k);
  rv_scratch_.clear();
  for (std::size_t idx = 0; idx < n_requests; ++idx) {
    const Request& r = request_at(idx);
    if (r.wavelength >= 0 && r.wavelength < k && r.input_fiber >= 0 &&
        r.duration >= 1) {
      rv_scratch_.add(r.wavelength);
      mask_set(nonempty_bits_.data(), r.wavelength);
      continue;
    }
    decisions[idx] = PortDecision::reject(validate_request(r, k));
  }

  run_kernel(rv_scratch_, available, avail_bits, health, degraded);

  arbitrate_into(
      n_requests,
      [&request_at](std::size_t idx) { return request_at(idx).wavelength; },
      decisions);
}

void OutputPortScheduler::schedule_into(
    std::span<const Request> requests, std::span<const std::uint8_t> available,
    const HealthMask* health, std::span<PortDecision> decisions, bool degraded,
    std::span<const std::uint64_t> avail_bits) {
  WDM_CHECK_MSG(decisions.size() == requests.size(),
                "one decision slot per request");
  schedule_port(
      requests.size(),
      [&requests](std::size_t idx) -> const Request& { return requests[idx]; },
      available, avail_bits, health, decisions, degraded);
}

void OutputPortScheduler::schedule_batch_into(
    std::span<const std::int32_t> wavelengths,
    std::span<const std::int32_t> input_fibers,
    std::span<const std::int32_t> durations,
    std::span<const std::uint8_t> available,
    std::span<const std::uint64_t> avail_bits, const HealthMask* health,
    std::span<PortDecision> decisions, bool degraded) {
  WDM_CHECK_MSG(decisions.size() == wavelengths.size() &&
                    input_fibers.size() == wavelengths.size() &&
                    durations.size() == wavelengths.size(),
                "one decision slot per request and equal column lengths");
  schedule_port(
      wavelengths.size(),
      [&](std::size_t idx) {
        return Request{input_fibers[idx], wavelengths[idx], 0, durations[idx]};
      },
      available, avail_bits, health, decisions, degraded);
}

void OutputPortScheduler::reserve_batch(std::size_t max_requests) {
  // member_flat_ holds one entry per surviving request of the batch. The
  // offset, cursor and win-count arrays are fixed at k+1 and reach capacity
  // on the first slot regardless.
  member_flat_.reserve(max_requests);
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
