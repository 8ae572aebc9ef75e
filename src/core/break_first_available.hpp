// Break and First Available (paper Table 3, Theorem 2) and its
// single-break approximation (Section IV.C, Theorem 3) — O(dk) / O(k).
//
// For circular symmetric conversion, the scheduler fixes the first pending
// request a_i, breaks the request graph at each of a_i's d edges in turn,
// runs First Available on each staircase-convex reduced graph, and keeps the
// largest matching plus the breaking edge. By Lemmas 3 and 4 this is exact.
//
// The d single-break schedules are independent, so in hardware they run
// side by side ("d units of hardware" in the paper, Theorem 2: O(k) with
// d-way parallelism); src/hw models that critical path. In software the
// sweep runs them one after another and stops early at an upper bound.
//
// The approximation skips the exhaustive sweep and breaks only at the edge
// whose Theorem-3 gap bound max{δ(u)-1, d-δ(u)} is smallest — δ(u)=(d+1)/2,
// the "shortest" edge, when it is available — trading at most (d-1)/2
// granted requests for a d-fold speedup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/channel_assignment.hpp"
#include "core/conversion.hpp"
#include "core/request.hpp"

namespace wdm::core {

/// Reusable scratch of the word kernels. Owned by the caller
/// (OutputPortScheduler keeps one per port) so that in steady state the d
/// candidate schedules of every slot run entirely in warm memory: the best
/// candidate so far lives in the output assignment, the current one here,
/// next to the packed masks each call rotates into its candidate's order.
struct BfaScratch {
  ChannelAssignment candidate{0};  ///< the candidate being scheduled
  /// Four packed masks of mask_words(k) words, one allocation (the scratch
  /// lives in every port): the availability and nonempty rows rotated into
  /// a candidate's order, a neighbourhood mask (free-near or pending-near)
  /// and one rotation being ORed into it.
  enum Mask : std::size_t { kRotatedAvail, kRotatedNonempty, kNear, kRotation };
  std::vector<std::uint64_t> masks;

  /// Sizes the buffers for k wavelengths; a no-op once they are.
  void reserve(std::int32_t k);
  std::uint64_t* mask(Mask m) noexcept {
    return masks.data() + m * (masks.size() / 4);
  }
};

/// Exact maximum-matching schedule for a circular, non-full-range scheme.
/// `available` is a size-k mask (1 = free); empty means all free. The result is
/// the first candidate (minus-side order) of maximum size; the sweep stops
/// at the first candidate that reaches adjacent_vertex_bound, which is that
/// candidate. The executable specification of Table 3 (byte masks, one step
/// per channel); the word kernels below are pinned against it.
ChannelAssignment break_first_available(const RequestVector& requests,
                                        const ConversionScheme& scheme,
                                        std::span<const std::uint8_t> available = {});

/// Upper bound on any matching of the instance: the smaller of the number
/// of requests with a free adjacent channel and the number of free channels
/// adjacent to a pending wavelength. The exhaustive sweep stops once its
/// best candidate reaches it (or min(requests, free channels)). O(k).
std::int32_t adjacent_vertex_bound(const RequestVector& requests,
                                   const ConversionScheme& scheme,
                                   std::span<const std::uint8_t> available = {});

/// One candidate of the exhaustive sweep: breaks at (first request of w_i,
/// channel u) and schedules the reduced graph with First Available. The
/// result includes the breaking grant itself. Exposed for tests and for the
/// hardware model. Requires requests.count(w_i) > 0 and u adjacent & free.
ChannelAssignment bfa_single_break(const RequestVector& requests,
                                   const ConversionScheme& scheme,
                                   std::span<const std::uint8_t> available,
                                   Wavelength w_i, Channel u);

struct ApproxBfaResult {
  ChannelAssignment assignment;
  Channel break_channel = kNone;   ///< chosen u (kNone if nothing to schedule)
  std::int32_t delta = 0;          ///< δ(u) of the chosen break
  std::int32_t gap_bound = 0;      ///< Theorem-3 bound for this break
};

/// Section IV.C approximation: single break at the best-bounded available
/// edge. The matching is within `gap_bound` of maximum (Theorem 3).
ApproxBfaResult approx_break_first_available(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint8_t> available = {});

// --- Word kernels (docs/ALGORITHMS.md §9) ---------------------------------
//
// The production forms of the sweeps above, decision-for-decision identical
// to them and writing into caller-owned scratch (allocation-free once warm):
// `avail_words` is the packed availability row (bit = 1 free, mask_words(k)
// words, tail zero — see core/wave_mask.hpp) and `nonempty_words` the packed
// nonempty-wavelength mask (bit w set iff requests.count(w) > 0). The inner
// sweeps jump with countr_zero over exactly the iterations the byte loops
// no-op on — occupied channels and empty wavelengths — so every grant lands
// on the same (channel, wavelength) pair in the same order, and the
// assignments (hence arbitration, hence decisions) are bit-identical. The
// fuzz oracle and the exhaustive k<=6 enumeration pin this.

/// Exhaustive sweep (Table 3). Same winner rule as break_first_available:
/// first candidate in minus-side order of maximum granted.
void break_first_available_masked_into(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint64_t> avail_words,
    std::span<const std::uint64_t> nonempty_words, BfaScratch& scratch,
    ChannelAssignment& out);

/// Section IV.C approximation, identical break choice and schedule to
/// approx_break_first_available; returns the chosen break channel (kNone
/// when nothing schedules).
Channel approx_break_first_available_masked_into(
    const RequestVector& requests, const ConversionScheme& scheme,
    std::span<const std::uint64_t> avail_words,
    std::span<const std::uint64_t> nonempty_words, BfaScratch& scratch,
    ChannelAssignment& out);

}  // namespace wdm::core
