// The First Available Algorithm (paper Table 2, Theorem 1) — O(k).
//
// For non-circular symmetric conversion the request graph is staircase
// convex, so scanning output channels b_0..b_{k-1} and granting each to the
// first pending request adjacent to it yields a maximum matching. Operating
// on the request *vector* (per-wavelength counts) makes one step O(1) and the
// whole schedule O(k) — independent of both the interconnect size N and the
// conversion degree d, exactly the complexity claimed in Section III.
//
// Occupied output channels (Section V) are skipped via the availability
// mask; this equals deleting those right-side vertices, which preserves
// convexity and hence optimality.
#pragma once

#include <cstdint>
#include <span>

#include "core/channel_assignment.hpp"
#include "core/conversion.hpp"
#include "core/request.hpp"

namespace wdm::core {

/// Maximum-matching channel assignment for a non-circular scheme.
/// `available` is a size-k mask (1 = channel free); empty means all free.
/// The executable specification of Table 2: one step per channel, the
/// oracle the word kernel below is pinned against.
ChannelAssignment first_available(const RequestVector& requests,
                                  const ConversionScheme& scheme,
                                  std::span<const std::uint8_t> available = {});

/// The production kernel, decision-for-decision identical to
/// first_available and writing into caller-owned scratch (allocation-free
/// once `out` is warm). `avail_words` is the packed availability row (bit =
/// 1 free, mask_words(k) words, tail zero; see core/wave_mask.hpp) and
/// `nonempty_words` the packed nonempty-wavelength mask (bit w set iff
/// requests.count(w) > 0). Both sweeps jump with countr_zero over exactly
/// the iterations the channel-by-channel loop no-ops on — occupied channels
/// and empty wavelengths — so the grant sequence, and therefore the
/// assignment, is bit-identical.
void first_available_masked_into(const RequestVector& requests,
                                 const ConversionScheme& scheme,
                                 std::span<const std::uint64_t> avail_words,
                                 std::span<const std::uint64_t> nonempty_words,
                                 ChannelAssignment& out);

}  // namespace wdm::core
