// Full-range conversion scheduling (Section I).
//
// With full-range converters every request can use every free channel, so
// requests are indistinguishable in the wavelength domain and scheduling is
// trivial: grant min(#requests, #free channels), assigning channels in index
// order. Implemented for completeness and as the d = k endpoint of the
// throughput experiments.
#pragma once

#include <cstdint>
#include <span>

#include "core/channel_assignment.hpp"
#include "core/request.hpp"

namespace wdm::core {

/// Grants as many requests as there are free channels; wavelengths are
/// consumed in index order, channels in index order. The executable
/// specification of the rule.
ChannelAssignment full_range_schedule(const RequestVector& requests,
                                      std::span<const std::uint8_t> available = {});

/// The production kernel, identical to full_range_schedule on the packed
/// masks of core/wave_mask.hpp: `avail_words` is the availability row and
/// `nonempty_words` the nonempty-wavelength mask of `requests`. Writes into
/// caller-owned scratch, allocation-free once `out` is warm.
void full_range_schedule_into(const RequestVector& requests,
                              std::span<const std::uint64_t> avail_words,
                              std::span<const std::uint64_t> nonempty_words,
                              ChannelAssignment& out);

}  // namespace wdm::core
