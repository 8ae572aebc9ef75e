#include "core/break_first_available.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "core/breaking.hpp"
#include "core/crossing.hpp"
#include "core/wave_mask.hpp"
#include "util/check.hpp"

namespace wdm::core {

namespace {

bool channel_free(std::span<const std::uint8_t> available, Channel v) {
  return available.empty() || available[static_cast<std::size_t>(v)] != 0;
}

/// Lowest wavelength with a pending request and at least one available
/// adjacent channel (an isolated request can never be granted and is not a
/// useful breaking vertex), or kNone.
Wavelength pick_breaking_wavelength(const RequestVector& requests,
                                    const ConversionScheme& scheme,
                                    std::span<const std::uint8_t> available) {
  const std::vector<std::int32_t>& counts = requests.counts();
  for (Wavelength w = 0; w < scheme.k(); ++w) {
    if (counts[static_cast<std::size_t>(w)] == 0) continue;
    const std::int32_t deg = scheme.adjacency_count(w);
    for (std::int32_t idx = 0; idx < deg; ++idx) {
      if (channel_free(available, scheme.adjacency_at(w, idx))) return w;
    }
  }
  return kNone;
}

void validate_scheme(const RequestVector& requests,
                     const ConversionScheme& scheme) {
  WDM_CHECK_MSG(scheme.kind() == ConversionKind::kCircular,
                "break_first_available requires a circular scheme; "
                "use first_available for non-circular conversion");
  WDM_CHECK_MSG(!scheme.is_full_range(),
                "full-range conversion is scheduled trivially (Section I)");
  WDM_CHECK_MSG(requests.k() == scheme.k(),
                "request vector and scheme disagree on k");
}

void validate_inputs(const RequestVector& requests,
                     const ConversionScheme& scheme,
                     std::span<const std::uint8_t> available) {
  validate_scheme(requests, scheme);
  WDM_CHECK_MSG(available.empty() ||
                    static_cast<std::int32_t>(available.size()) == scheme.k(),
                "availability mask must have one entry per channel");
}

/// adjacent_vertex_bound over either availability form, in one O(k) pass.
/// Wavelength i reaches the channel run [i-e, i+f] and channel i is reached
/// from the wavelength run [i-f, i+e] (mod k); d < k, so each run holds d
/// distinct entries and both neighbourhood counts slide by one per step.
template <typename FreeFn>
std::int32_t vertex_bound(const RequestVector& requests,
                          const ConversionScheme& scheme, FreeFn&& is_free) {
  const std::int32_t k = scheme.k();
  const std::vector<std::int32_t>& counts = requests.counts();
  const auto free_at = [&](Channel v) { return is_free(v) ? 1 : 0; };
  const auto pending_at = [&counts](Wavelength w) {
    return counts[static_cast<std::size_t>(w)] > 0 ? 1 : 0;
  };
  const auto next = [k](std::int32_t x) { return x + 1 == k ? 0 : x + 1; };
  Channel ch_out = mod_k(-scheme.e(), k);  // leaves wavelength i's run next
  Channel ch_in = ch_out;                  // enters it next
  Wavelength w_out = mod_k(-scheme.f(), k);
  Wavelength w_in = w_out;
  std::int32_t free_near = 0;     // free channels adjacent to wavelength i
  std::int32_t pending_near = 0;  // pending wavelengths adjacent to channel i
  for (std::int32_t s = 0; s < scheme.degree(); ++s) {
    free_near += free_at(ch_in);
    pending_near += pending_at(w_in);
    ch_in = next(ch_in);
    w_in = next(w_in);
  }
  std::int32_t live_requests = 0;
  std::int32_t live_channels = 0;
  for (std::int32_t i = 0; i < k; ++i) {
    live_requests += free_near > 0 ? counts[static_cast<std::size_t>(i)] : 0;
    live_channels += pending_near > 0 ? free_at(i) : 0;
    free_near += free_at(ch_in) - free_at(ch_out);
    pending_near += pending_at(w_in) - pending_at(w_out);
    ch_in = next(ch_in);
    ch_out = next(ch_out);
    w_in = next(w_in);
    w_out = next(w_out);
  }
  return std::min(live_requests, live_channels);
}

/// The exhaustive Table-3 sweep over w_i's free adjacent channels, shared by
/// the byte spec and the word kernel: run(u, out) schedules the candidate
/// breaking at channel u. The first candidate runs straight into `out`; each
/// later one runs into the scratch candidate and is swapped in only when it
/// grants strictly more, so `out` is always the first candidate of maximum
/// size so far. The sweep stops once that reaches min(requests, free
/// channels), or else adjacent_vertex_bound; the first candidate to reach an
/// upper bound on the maximum is the first of maximum size, so the winner is
/// unchanged.
template <typename FreeFn, typename RunFn>
void sweep_breaks(const RequestVector& requests, const ConversionScheme& scheme,
                  Wavelength w_i, FreeFn&& is_free, RunFn&& run,
                  BfaScratch& scratch, ChannelAssignment& out) {
  const std::int32_t deg = scheme.adjacency_count(w_i);
  std::int32_t idx = 0;
  while (!is_free(scheme.adjacency_at(w_i, idx))) {
    ++idx;
    WDM_DCHECK(idx < deg);
  }
  run(scheme.adjacency_at(w_i, idx), out);

  std::int32_t bound = -1;  // computed once a second candidate exists
  for (++idx; idx < deg; ++idx) {
    const Channel u = scheme.adjacency_at(w_i, idx);
    if (!is_free(u)) continue;
    if (bound < 0) {
      std::int32_t free_channels = 0;
      for (Channel v = 0; v < scheme.k(); ++v) {
        free_channels += is_free(v) ? 1 : 0;
      }
      bound = std::min(requests.total(), free_channels);
      if (out.granted < bound) bound = vertex_bound(requests, scheme, is_free);
    }
    if (out.granted >= bound) break;
    ChannelAssignment& cand = scratch.candidate;
    run(u, cand);
    if (cand.granted > out.granted) {
      // Swap buffers rather than copy; both stay warm, so the next call's
      // in-place resets still never allocate.
      out.source.swap(cand.source);
      out.granted = cand.granted;
    }
  }
}

/// The Section IV.C break: w_i's free adjacent channel with the smallest
/// Theorem-3 gap bound, ties broken toward the centre δ* = (d+1)/2
/// (Corollary 1's "shortest" edge). Requires a free adjacent channel.
template <typename FreeFn>
Channel pick_approx_break(const ConversionScheme& scheme, Wavelength w_i,
                          FreeFn&& is_free) {
  const std::int32_t d = scheme.degree();
  const std::int32_t delta_star = (d + 1) / 2;
  Channel best_u = kNone;
  std::int32_t best_delta = 0;
  std::int32_t best_bound = 0;
  for (std::int32_t idx = 0; idx < d; ++idx) {
    const Channel u = scheme.adjacency_at(w_i, idx);
    if (!is_free(u)) continue;
    const std::int32_t delta = idx + 1;
    const std::int32_t bound = breaking_gap_bound(d, delta);
    if (best_u == kNone || bound < best_bound ||
        (bound == best_bound &&
         std::abs(delta - delta_star) < std::abs(best_delta - delta_star))) {
      best_u = u;
      best_delta = delta;
      best_bound = bound;
    }
  }
  WDM_DCHECK(best_u != kNone);
  return best_u;
}

/// bfa_single_break minus the input validation — the exhaustive sweep
/// validates once and runs this d times, so the per-candidate cost stays the
/// Table-3 O(k) with no repeated shape checks.
void single_break_unchecked(const RequestVector& requests,
                            const ConversionScheme& scheme,
                            std::span<const std::uint8_t> available,
                            Wavelength w_i, Channel u, ChannelAssignment& out) {
  const std::int32_t k = scheme.k();
  const std::int32_t d = scheme.degree();
  const std::vector<std::int32_t>& counts = requests.counts();
  out.reset(k);
  out.source[static_cast<std::size_t>(u)] = w_i;
  out.granted = 1;

  // First Available over the rotated (staircase convex, Lemma 2) reduced
  // graph, in request-vector form. The left pointer walks wavelengths in
  // rotated order κ = 0..k-1, i.e. w_i's remaining group first.
  //
  // Every modular quantity advances by exactly +1 per step — the wavelength,
  // the rotated start of its adjacency run, and the original channel of the
  // current rotated position — so the sweep maintains them incrementally
  // (conditional wrap) instead of re-deriving them with mod_k. This keeps the
  // per-candidate cost the Table-3 O(k) with no divisions in the loop, and
  // computes exactly the same intervals as reduced_adjacency (the closed
  // form's `start` is the only per-wavelength input, and it advances with
  // the wavelength).
  const std::int32_t plus_side_span =
      fwd(w_i, mod_k(static_cast<std::int64_t>(u) + scheme.e(), k), k);
  std::int32_t run_start =
      channel_to_rotated(u, scheme.adjacency_start(w_i), k);
  const auto iv_of = [&](std::int32_t kappa_now) {
    const std::int32_t last = run_start + d - 1;  // may pass k-1 (wraps)
    if (last <= k - 2) return graph::Interval{run_start, last};
    if (kappa_now <= plus_side_span) return graph::Interval{0, last - k};
    return graph::Interval{run_start, k - 2};
  };

  std::int32_t kappa = 0;
  Wavelength w = w_i;
  std::int32_t remaining =
      counts[static_cast<std::size_t>(w_i)] - 1;  // a_i itself is consumed
  graph::Interval iv = remaining > 0 ? iv_of(0) : graph::Interval{};

  const auto advance = [&] {
    ++kappa;
    if (kappa == k) return;
    if (++w == k) w = 0;
    if (++run_start == k) run_start = 0;
    remaining = counts[static_cast<std::size_t>(w)];
    if (remaining > 0) iv = iv_of(kappa);
  };

  Channel v = u + 1 == k ? 0 : u + 1;  // rotated position 0 is b_{u+1}
  for (std::int32_t vp = 0; vp <= k - 2; ++vp, v = (v + 1 == k ? 0 : v + 1)) {
    if (!channel_free(available, v)) continue;  // Section V: occupied channel
    while (kappa < k && (remaining == 0 || iv.empty() || iv.end < vp)) {
      advance();
    }
    if (kappa == k) break;
    if (iv.begin <= vp) {
      WDM_DCHECK(scheme.can_convert(w, v));
      WDM_DCHECK(iv == reduced_adjacency(scheme, w_i, u, w));
      out.source[static_cast<std::size_t>(v)] = w;
      out.granted += 1;
      remaining -= 1;
    }
  }
}

}  // namespace

ChannelAssignment bfa_single_break(const RequestVector& requests,
                                   const ConversionScheme& scheme,
                                   std::span<const std::uint8_t> available,
                                   Wavelength w_i, Channel u) {
  validate_inputs(requests, scheme, available);
  WDM_CHECK_MSG(requests.count(w_i) > 0,
                "breaking wavelength must have a pending request");
  WDM_CHECK_MSG(scheme.can_convert(w_i, u), "breaking edge must exist");
  WDM_CHECK_MSG(channel_free(available, u), "breaking channel must be free");
  ChannelAssignment out(scheme.k());
  single_break_unchecked(requests, scheme, available, w_i, u, out);
  return out;
}

ChannelAssignment break_first_available(const RequestVector& requests,
                                        const ConversionScheme& scheme,
                                        std::span<const std::uint8_t> available) {
  validate_inputs(requests, scheme, available);
  ChannelAssignment out(scheme.k());
  const Wavelength w_i = pick_breaking_wavelength(requests, scheme, available);
  if (w_i == kNone) return out;

  BfaScratch scratch;
  sweep_breaks(
      requests, scheme, w_i,
      [available](Channel v) { return channel_free(available, v); },
      [&](Channel u, ChannelAssignment& cand) {
        single_break_unchecked(requests, scheme, available, w_i, u, cand);
      },
      scratch, out);
  return out;
}

std::int32_t adjacent_vertex_bound(const RequestVector& requests,
                                   const ConversionScheme& scheme,
                                   std::span<const std::uint8_t> available) {
  validate_inputs(requests, scheme, available);
  return vertex_bound(requests, scheme, [available](Channel v) {
    return channel_free(available, v);
  });
}

namespace {

/// pick_breaking_wavelength over the packed masks: the nonempty mask jumps
/// straight to pending wavelengths, and the free-adjacent-channel test is a
/// word scan over the circular adjacency run. Returns the same wavelength
/// as the byte-row scan (existence of a free adjacent channel is all the
/// byte inner loop establishes).
Wavelength pick_breaking_wavelength_masked(const ConversionScheme& scheme,
                                           const std::uint64_t* avail,
                                           const std::uint64_t* nonempty) {
  const std::int32_t k = scheme.k();
  for (Wavelength w = find_next_set(nonempty, k, 0); w < k;
       w = find_next_set(nonempty, k, w + 1)) {
    if (any_set_circular(avail, k, scheme.adjacency_start(w),
                         scheme.adjacency_count(w))) {
      return w;
    }
  }
  return kNone;
}

void validate_masked_inputs(const RequestVector& requests,
                            const ConversionScheme& scheme,
                            std::span<const std::uint64_t> avail_words,
                            std::span<const std::uint64_t> nonempty_words) {
  validate_scheme(requests, scheme);
  WDM_CHECK_MSG(avail_words.size() == mask_words(scheme.k()) &&
                    nonempty_words.size() == mask_words(scheme.k()),
                "packed masks must have mask_words(k) words");
}

/// single_break_unchecked over the packed masks. Same state machine, two
/// jumps instead of two walks: the channel loop visits free channels via
/// find_next_set on the availability row (in the same rotated order vp =
/// 0..k-2, split at the wrap), and the left pointer hops between nonempty
/// wavelengths via find_next_set on the nonempty mask (the byte advance()
/// steps through empty wavelengths without ever exiting its while loop, so
/// landing directly on the next pending wavelength reaches the identical
/// state). All modular quantities stay division-free closed forms.
void single_break_masked(const RequestVector& requests,
                         const ConversionScheme& scheme,
                         const std::uint64_t* avail,
                         const std::uint64_t* nonempty, Wavelength w_i,
                         Channel u, ChannelAssignment& out) {
  const std::int32_t k = scheme.k();
  const std::int32_t d = scheme.degree();
  const std::vector<std::int32_t>& counts = requests.counts();
  out.reset(k);
  out.source[static_cast<std::size_t>(u)] = w_i;
  out.granted = 1;

  const std::int32_t plus_side_span =
      fwd(w_i, mod_k(static_cast<std::int64_t>(u) + scheme.e(), k), k);
  const std::int32_t run_start0 =
      channel_to_rotated(u, scheme.adjacency_start(w_i), k);

  std::int32_t kappa = 0;
  Wavelength w = w_i;
  std::int32_t run_start = run_start0;
  std::int32_t remaining = counts[static_cast<std::size_t>(w_i)] - 1;
  const auto iv_of = [&](std::int32_t kappa_now) {
    const std::int32_t last = run_start + d - 1;  // may pass k-1 (wraps)
    if (last <= k - 2) return graph::Interval{run_start, last};
    if (kappa_now <= plus_side_span) return graph::Interval{0, last - k};
    return graph::Interval{run_start, k - 2};
  };
  graph::Interval iv = remaining > 0 ? iv_of(0) : graph::Interval{};

  // Jump to the next κ' > κ whose wavelength has a pending request, or set
  // κ = k when none is left. The search runs over the rotated wavelength
  // order w_i, w_i+1, ..., w_i-1 — at most two linear ranges of the mask.
  const auto advance_live = [&] {
    const std::int32_t steps_left = k - 1 - kappa;  // κ values after kappa
    if (steps_left <= 0) {
      kappa = k;
      return;
    }
    const Wavelength wn = w + 1 == k ? 0 : w + 1;  // wavelength at κ+1
    std::int32_t dist = -1;  // distance from wn to the found wavelength
    if (wn + steps_left <= k) {
      const std::int32_t nxt = find_next_set(nonempty, wn + steps_left, wn);
      if (nxt < wn + steps_left) dist = nxt - wn;
    } else {
      std::int32_t nxt = find_next_set(nonempty, k, wn);
      if (nxt < k) {
        dist = nxt - wn;
      } else {
        const std::int32_t wrap_hi = steps_left - (k - wn);
        nxt = find_next_set(nonempty, wrap_hi, 0);
        if (nxt < wrap_hi) dist = (k - wn) + nxt;
      }
    }
    if (dist < 0) {
      kappa = k;
      return;
    }
    kappa += 1 + dist;
    w = wn + dist >= k ? wn + dist - k : wn + dist;
    run_start = run_start0 + kappa >= k ? run_start0 + kappa - k
                                        : run_start0 + kappa;
    remaining = counts[static_cast<std::size_t>(w)];
    iv = iv_of(kappa);
  };

  const auto visit = [&](Channel v, std::int32_t vp) -> bool {
    while (kappa < k && (remaining == 0 || iv.empty() || iv.end < vp)) {
      advance_live();
    }
    if (kappa == k) return false;
    if (iv.begin <= vp) {
      WDM_DCHECK(scheme.can_convert(w, v));
      out.source[static_cast<std::size_t>(v)] = w;
      out.granted += 1;
      remaining -= 1;
    }
    return true;
  };

  // Rotated position vp of channel v is v-u-1 (mod k): segment [u+1, k)
  // first, then the wrapped segment [0, u). Position k-1 is u itself — the
  // breaking channel, never visited, exactly like the byte vp <= k-2 loop.
  for (Channel v = find_next_set(avail, k, u + 1); v < k;
       v = find_next_set(avail, k, v + 1)) {
    if (!visit(v, v - u - 1)) return;
  }
  const std::int32_t wrap_base = k - u - 1;
  for (Channel v = find_next_set(avail, k, 0); v < u;
       v = find_next_set(avail, k, v + 1)) {
    if (!visit(v, v + wrap_base)) return;
  }
}

}  // namespace

void break_first_available_masked_into(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint64_t> avail_words,
    std::span<const std::uint64_t> nonempty_words, BfaScratch& scratch,
    ChannelAssignment& out) {
  validate_masked_inputs(requests, scheme, avail_words, nonempty_words);
  const std::uint64_t* avail = avail_words.data();
  const std::uint64_t* nonempty = nonempty_words.data();
  const Wavelength w_i =
      pick_breaking_wavelength_masked(scheme, avail, nonempty);
  if (w_i == kNone) {
    out.reset(scheme.k());
    return;
  }

  sweep_breaks(
      requests, scheme, w_i, [avail](Channel v) { return mask_test(avail, v); },
      [&](Channel u, ChannelAssignment& cand) {
        single_break_masked(requests, scheme, avail, nonempty, w_i, u, cand);
      },
      scratch, out);
}

Channel approx_break_first_available_masked_into(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint64_t> avail_words,
    std::span<const std::uint64_t> nonempty_words, ChannelAssignment& out) {
  validate_masked_inputs(requests, scheme, avail_words, nonempty_words);
  const std::uint64_t* avail = avail_words.data();
  const Wavelength w_i = pick_breaking_wavelength_masked(
      scheme, avail, nonempty_words.data());
  if (w_i == kNone) {
    out.reset(scheme.k());
    return kNone;
  }

  const Channel u = pick_approx_break(
      scheme, w_i, [avail](Channel v) { return mask_test(avail, v); });
  single_break_masked(requests, scheme, avail, nonempty_words.data(), w_i, u,
                      out);
  return u;
}

ApproxBfaResult approx_break_first_available(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint8_t> available) {
  validate_inputs(requests, scheme, available);
  ApproxBfaResult out{ChannelAssignment(scheme.k()), kNone, 0, 0};
  const Wavelength w_i = pick_breaking_wavelength(requests, scheme, available);
  if (w_i == kNone) return out;

  const Channel u = pick_approx_break(scheme, w_i, [available](Channel v) {
    return channel_free(available, v);
  });
  single_break_unchecked(requests, scheme, available, w_i, u, out.assignment);
  out.break_channel = u;
  out.delta = delta_of(scheme, w_i, u);
  out.gap_bound = breaking_gap_bound(scheme.degree(), out.delta);
  return out;
}

}  // namespace wdm::core
