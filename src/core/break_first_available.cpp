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

/// Sizes the scratch and checks the inputs of a word-kernel call.
void prepare_masked(const RequestVector& requests,
                    const ConversionScheme& scheme,
                    std::span<const std::uint64_t> avail_words,
                    std::span<const std::uint64_t> nonempty_words,
                    BfaScratch& s) {
  validate_scheme(requests, scheme);
  WDM_CHECK_MSG(avail_words.size() == mask_words(scheme.k()) &&
                    nonempty_words.size() == mask_words(scheme.k()),
                "packed masks must have mask_words(k) words");
  s.reserve(scheme.k());
}

/// kNear = OR over j in [0, d) of `in` rotated down by (j - shift) mod k:
/// bit i is set iff any of in's bits i-shift .. i-shift+d-1 (mod k) is.
/// With the availability and shift e that is "wavelength i has a free
/// adjacent channel"; with the nonempty mask and shift f, "channel i has a
/// pending adjacent wavelength".
void or_rotations(const std::uint64_t* in, std::int32_t k, std::int32_t d,
                  std::int32_t shift, BfaScratch& s) {
  std::uint64_t* near = s.mask(BfaScratch::kNear);
  std::uint64_t* rotation = s.mask(BfaScratch::kRotation);
  mask_zero(near, k);
  for (std::int32_t j = 0; j < d; ++j) {
    mask_rotate(in, k, mod_k(j - shift, k), rotation);
    for (std::size_t i = 0; i < mask_words(k); ++i) near[i] |= rotation[i];
  }
}

/// pick_breaking_wavelength over the packed masks: the lowest set bit of
/// nonempty & free-near. Leaves the free-near mask in kNear, and the
/// nonempty mask rotated down by the result in kRotatedNonempty.
Wavelength pick_breaking_wavelength_masked(const ConversionScheme& scheme,
                                           const std::uint64_t* avail,
                                           const std::uint64_t* nonempty,
                                           BfaScratch& s) {
  const std::int32_t k = scheme.k();
  or_rotations(avail, k, scheme.degree(), scheme.e(), s);
  const std::uint64_t* near = s.mask(BfaScratch::kNear);
  for (std::size_t i = 0; i < mask_words(k); ++i) {
    const std::uint64_t live = nonempty[i] & near[i];
    if (live == 0) continue;
    const auto w_i = static_cast<Wavelength>(i * 64) + std::countr_zero(live);
    mask_rotate(nonempty, k, w_i, s.mask(BfaScratch::kRotatedNonempty));
    return w_i;
  }
  return kNone;
}

/// adjacent_vertex_bound over the packed masks, with kNear holding the
/// free-near mask: the requests of wavelengths with a free adjacent channel
/// against the free channels with a pending adjacent wavelength.
std::int32_t vertex_bound_masked(const RequestVector& requests,
                                 const ConversionScheme& scheme,
                                 const std::uint64_t* avail,
                                 const std::uint64_t* nonempty,
                                 BfaScratch& s) {
  const std::int32_t k = scheme.k();
  std::uint64_t* near = s.mask(BfaScratch::kNear);
  std::int32_t live_requests = 0;
  for (std::size_t i = 0; i < mask_words(k); ++i) {
    for (std::uint64_t live = nonempty[i] & near[i]; live != 0;
         live &= live - 1) {
      live_requests += requests.counts()[i * 64 + static_cast<std::size_t>(
                                                      std::countr_zero(live))];
    }
  }
  or_rotations(nonempty, k, scheme.degree(), scheme.f(), s);
  for (std::size_t i = 0; i < mask_words(k); ++i) near[i] &= avail[i];
  return std::min(live_requests, mask_popcount(near, k));
}

/// The exhaustive Table-3 sweep over w_i's free adjacent channels, shared by
/// the byte spec and the word kernel: run(u, out) schedules the candidate
/// breaking at channel u. The first candidate runs straight into `out`; each
/// later one runs into the scratch candidate and is swapped in only when it
/// grants strictly more, so `out` is always the first candidate of maximum
/// size so far. The sweep stops once that reaches min(requests,
/// free_channels), or else adjacent_vertex_bound (bound()); the first
/// candidate to reach an upper bound on the maximum is the first of maximum
/// size, so the winner is unchanged.
template <typename FreeFn, typename BoundFn, typename RunFn>
void sweep_breaks(const RequestVector& requests, const ConversionScheme& scheme,
                  Wavelength w_i, std::int32_t free_channels, FreeFn&& is_free,
                  BoundFn&& bound_fn, RunFn&& run, BfaScratch& scratch,
                  ChannelAssignment& out) {
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
      bound = std::min(requests.total(), free_channels);
      if (out.granted < bound) bound = bound_fn();
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

/// single_break_unchecked over the packed masks. Same state machine, on
/// masks rotated into the candidate's own order: the rotated availability
/// holds channel u+1+vp (mod k) at bit vp and the rotated nonempty mask
/// w_i+κ (mod k) at bit κ. The channel loop takes one countr_zero step per
/// free channel up to vp = k-2 (position k-1 is u itself, the breaking
/// channel, never visited, exactly like the byte vp <= k-2 loop), and the
/// left pointer one per pending wavelength (the byte advance() steps
/// through empty wavelengths without ever exiting its while loop, so
/// landing directly on the next pending wavelength reaches the identical
/// state). All modular quantities stay division-free closed forms.
void single_break_masked(const RequestVector& requests,
                         const ConversionScheme& scheme,
                         const std::uint64_t* avail, BfaScratch& s,
                         Wavelength w_i, Channel u, ChannelAssignment& out) {
  const std::int32_t k = scheme.k();
  const std::int32_t d = scheme.degree();
  const std::vector<std::int32_t>& counts = requests.counts();
  out.reset(k);
  out.source[static_cast<std::size_t>(u)] = w_i;
  out.granted = 1;
  const Channel first = u + 1 == k ? 0 : u + 1;  // rotated position 0
  std::uint64_t* rotated_avail = s.mask(BfaScratch::kRotatedAvail);
  const std::uint64_t* rotated_nonempty = s.mask(BfaScratch::kRotatedNonempty);
  mask_rotate(avail, k, first, rotated_avail);
  mask_clear(rotated_avail, k - 1);

  const std::int32_t plus_side_span =
      fwd(w_i, mod_k(static_cast<std::int64_t>(u) + scheme.e(), k), k);
  const std::int32_t run_start0 =
      channel_to_rotated(u, scheme.adjacency_start(w_i), k);
  Wavelength w = w_i;
  std::int32_t run_start = run_start0;
  std::int32_t remaining = counts[static_cast<std::size_t>(w_i)] - 1;
  const auto iv_of = [&](std::int32_t kappa) {
    const std::int32_t last = run_start + d - 1;  // may pass k-1 (wraps)
    if (last <= k - 2) return graph::Interval{run_start, last};
    if (kappa <= plus_side_span) return graph::Interval{0, last - k};
    return graph::Interval{run_start, k - 2};
  };
  graph::Interval iv = remaining > 0 ? iv_of(0) : graph::Interval{};

  const std::size_t nw = mask_words(k);
  std::size_t pending_word = 0;  // pending wavelengths left, from κ = 1 on
  std::uint64_t pending = rotated_nonempty[0] & ~std::uint64_t{1};
  for (std::size_t free_word = 0; free_word < nw; ++free_word) {
    for (std::uint64_t free = rotated_avail[free_word]; free != 0;
         free &= free - 1) {
      const std::int32_t vp = static_cast<std::int32_t>(free_word * 64) +
                              std::countr_zero(free);
      while (remaining == 0 || iv.empty() || iv.end < vp) {
        while (pending == 0) {
          if (++pending_word == nw) return;
          pending = rotated_nonempty[pending_word];
        }
        const std::int32_t kappa = static_cast<std::int32_t>(pending_word * 64) +
                                   std::countr_zero(pending);
        pending &= pending - 1;
        w = w_i + kappa >= k ? w_i + kappa - k : w_i + kappa;
        run_start = run_start0 + kappa >= k ? run_start0 + kappa - k
                                            : run_start0 + kappa;
        remaining = counts[static_cast<std::size_t>(w)];
        iv = iv_of(kappa);
      }
      if (iv.begin <= vp) {
        const Channel v = first + vp >= k ? first + vp - k : first + vp;
        WDM_DCHECK(scheme.can_convert(w, v));
        out.source[static_cast<std::size_t>(v)] = w;
        out.granted += 1;
        remaining -= 1;
      }
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
  const auto free_channels = static_cast<std::int32_t>(
      scheme.k() - std::count(available.begin(), available.end(), 0));
  sweep_breaks(
      requests, scheme, w_i, free_channels,
      [available](Channel v) { return channel_free(available, v); },
      [&] { return adjacent_vertex_bound(requests, scheme, available); },
      [&](Channel u, ChannelAssignment& cand) {
        single_break_unchecked(requests, scheme, available, w_i, u, cand);
      },
      scratch, out);
  return out;
}

std::int32_t adjacent_vertex_bound(const RequestVector& requests,
                                   const ConversionScheme& scheme,
                                   std::span<const std::uint8_t> available) {
  // Through the packed form: one bound routine serves both kernels.
  validate_inputs(requests, scheme, available);
  const std::int32_t k = scheme.k();
  std::vector<std::uint64_t> avail(mask_words(k)), nonempty(mask_words(k));
  pack_availability(available, k, avail.data());
  pack_counts(requests.counts(), k, nonempty.data());
  BfaScratch s;
  s.reserve(k);
  or_rotations(avail.data(), k, scheme.degree(), scheme.e(), s);
  return vertex_bound_masked(requests, scheme, avail.data(), nonempty.data(),
                             s);
}

void BfaScratch::reserve(std::int32_t k) {
  if (candidate.k() != k) candidate.reset(k);
  masks.resize(4 * mask_words(k));
}

void break_first_available_masked_into(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint64_t> avail_words,
    std::span<const std::uint64_t> nonempty_words, BfaScratch& scratch,
    ChannelAssignment& out) {
  prepare_masked(requests, scheme, avail_words, nonempty_words, scratch);
  const std::uint64_t* avail = avail_words.data();
  const std::uint64_t* nonempty = nonempty_words.data();
  const Wavelength w_i =
      pick_breaking_wavelength_masked(scheme, avail, nonempty, scratch);
  if (w_i == kNone) {
    out.reset(scheme.k());
    return;
  }
  sweep_breaks(
      requests, scheme, w_i, mask_popcount(avail, scheme.k()),
      [avail](Channel v) { return mask_test(avail, v); },
      [&] {
        return vertex_bound_masked(requests, scheme, avail, nonempty, scratch);
      },
      [&](Channel u, ChannelAssignment& cand) {
        single_break_masked(requests, scheme, avail, scratch, w_i, u, cand);
      },
      scratch, out);
}

Channel approx_break_first_available_masked_into(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint64_t> avail_words,
    std::span<const std::uint64_t> nonempty_words, BfaScratch& scratch,
    ChannelAssignment& out) {
  prepare_masked(requests, scheme, avail_words, nonempty_words, scratch);
  const std::uint64_t* avail = avail_words.data();
  const Wavelength w_i = pick_breaking_wavelength_masked(
      scheme, avail, nonempty_words.data(), scratch);
  if (w_i == kNone) {
    out.reset(scheme.k());
    return kNone;
  }
  const Channel u = pick_approx_break(
      scheme, w_i, [avail](Channel v) { return mask_test(avail, v); });
  single_break_masked(requests, scheme, avail, scratch, w_i, u, out);
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
