#include "core/full_range.hpp"

#include "core/wave_mask.hpp"
#include "util/check.hpp"

namespace wdm::core {

ChannelAssignment full_range_schedule(const RequestVector& requests,
                                      std::span<const std::uint8_t> available) {
  const std::int32_t k = requests.k();
  WDM_CHECK_MSG(available.empty() ||
                    static_cast<std::int32_t>(available.size()) == k,
                "availability mask must have one entry per channel");
  ChannelAssignment out(k);

  Wavelength w = 0;
  std::int32_t remaining = requests.count(0);
  for (Channel u = 0; u < k; ++u) {
    if (!available.empty() && available[static_cast<std::size_t>(u)] == 0) {
      continue;
    }
    while (w < k && remaining == 0) {
      ++w;
      remaining = w < k ? requests.count(w) : 0;
    }
    if (w == k) break;
    out.source[static_cast<std::size_t>(u)] = w;
    out.granted += 1;
    remaining -= 1;
  }
  return out;
}

void full_range_schedule_into(const RequestVector& requests,
                              std::span<const std::uint64_t> avail_words,
                              std::span<const std::uint64_t> nonempty_words,
                              ChannelAssignment& out) {
  const std::int32_t k = requests.k();
  WDM_CHECK_MSG(avail_words.size() == mask_words(k) &&
                    nonempty_words.size() == mask_words(k),
                "packed masks must have mask_words(k) words");
  const std::uint64_t* avail = avail_words.data();
  const std::uint64_t* nonempty = nonempty_words.data();
  out.reset(k);

  // full_range_schedule with both walks replaced by find-next-set jumps:
  // free channels in index order, pending wavelengths in index order.
  Wavelength w = find_next_set(nonempty, k, 0);
  std::int32_t remaining = w < k ? requests.count(w) : 0;
  for (Channel u = find_next_set(avail, k, 0); u < k && w < k;
       u = find_next_set(avail, k, u + 1)) {
    out.source[static_cast<std::size_t>(u)] = w;
    out.granted += 1;
    if (--remaining == 0) {
      w = find_next_set(nonempty, k, w + 1);
      remaining = w < k ? requests.count(w) : 0;
    }
  }
}

}  // namespace wdm::core
