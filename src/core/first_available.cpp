#include "core/first_available.hpp"

#include "core/wave_mask.hpp"
#include "util/check.hpp"

namespace wdm::core {

ChannelAssignment first_available(const RequestVector& requests,
                                  const ConversionScheme& scheme,
                                  std::span<const std::uint8_t> available) {
  WDM_CHECK_MSG(scheme.kind() == ConversionKind::kNonCircular,
                "first_available requires a non-circular scheme (Theorem 1); "
                "use break_first_available for circular conversion");
  WDM_CHECK_MSG(requests.k() == scheme.k(),
                "request vector and scheme disagree on k");
  WDM_CHECK_MSG(available.empty() ||
                    static_cast<std::int32_t>(available.size()) == scheme.k(),
                "availability mask must have one entry per channel");

  const std::int32_t k = scheme.k();
  const std::int32_t e = scheme.e();
  const std::int32_t f = scheme.f();
  ChannelAssignment out(k);

  // Pointer over left vertices in request-vector form: wavelength `w` with
  // `remaining` unscheduled requests. All lower wavelengths are either fully
  // granted or dead (their interval ended before the current channel).
  Wavelength w = 0;
  std::int32_t remaining = requests.count(0);

  for (Channel u = 0; u < k; ++u) {
    if (!available.empty() && available[static_cast<std::size_t>(u)] == 0) {
      continue;  // Section V: occupied channel = deleted right vertex
    }
    // Drop exhausted wavelengths and those whose END value (w + f) already
    // passed u — they can never be matched to any later channel either.
    while (w < k && (remaining == 0 || w + f < u)) {
      ++w;
      remaining = w < k ? requests.count(w) : 0;
    }
    if (w == k) break;
    // `w` is the first wavelength with a pending request. It is adjacent to
    // u iff its BEGIN value (w - e) has been reached; if it has not, no
    // pending wavelength is adjacent to u (BEGIN values only grow).
    if (w - e <= u) {
      WDM_DCHECK(scheme.can_convert(w, u));
      out.source[static_cast<std::size_t>(u)] = w;
      out.granted += 1;
      remaining -= 1;
    }
  }
  return out;
}

void first_available_masked_into(const RequestVector& requests,
                                 const ConversionScheme& scheme,
                                 std::span<const std::uint64_t> avail_words,
                                 std::span<const std::uint64_t> nonempty_words,
                                 ChannelAssignment& out) {
  WDM_CHECK_MSG(scheme.kind() == ConversionKind::kNonCircular,
                "first_available requires a non-circular scheme (Theorem 1); "
                "use break_first_available for circular conversion");
  WDM_CHECK_MSG(requests.k() == scheme.k(),
                "request vector and scheme disagree on k");
  const std::int32_t k = scheme.k();
  WDM_DCHECK(avail_words.size() == mask_words(k));
  WDM_DCHECK(nonempty_words.size() == mask_words(k));
  const std::int32_t e = scheme.e();
  const std::int32_t f = scheme.f();
  const std::uint64_t* avail = avail_words.data();
  const std::uint64_t* nonempty = nonempty_words.data();
  out.reset(k);

  // first_available's two pointers, with both no-op walks replaced by
  // find-next-set jumps: the channel loop skips occupied channels (the
  // spec `continue`s on them) and the wavelength pointer skips empty
  // wavelengths (the spec steps through them without exiting its while —
  // it only stops on a wavelength with remaining > 0 and w + f >= u, which
  // is exactly where the jump lands). The grant sequence is identical.
  Wavelength w = 0;
  std::int32_t remaining = requests.count(0);
  for (Channel u = find_next_set(avail, k, 0); u < k;
       u = find_next_set(avail, k, u + 1)) {
    while (w < k && (remaining == 0 || w + f < u)) {
      w = find_next_set(nonempty, k, w + 1);
      remaining = w < k ? requests.count(w) : 0;
    }
    if (w == k) break;
    if (w - e <= u) {
      WDM_DCHECK(scheme.can_convert(w, u));
      out.source[static_cast<std::size_t>(u)] = w;
      out.granted += 1;
      remaining -= 1;
    }
  }
}

}  // namespace wdm::core
