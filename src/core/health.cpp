#include "core/health.hpp"

#include <algorithm>
#include <bit>

#include "core/wave_mask.hpp"
#include "util/check.hpp"

namespace wdm::core {

bool HealthMask::all_healthy() const noexcept {
  if (fiber_faulted) return false;
  for (const auto h : channels) {
    if (h != ChannelHealth::kHealthy) return false;
  }
  return true;
}

HealthMask HealthMask::healthy(std::int32_t k) {
  WDM_CHECK(k > 0);
  HealthMask mask;
  mask.channels.assign(static_cast<std::size_t>(k), ChannelHealth::kHealthy);
  return mask;
}

HealthReduction apply_health(const RequestVector& requests,
                             std::span<const std::uint8_t> available,
                             const HealthMask& health) {
  const std::int32_t k = requests.k();
  WDM_CHECK_MSG(available.empty() ||
                    static_cast<std::int32_t>(available.size()) == k,
                "availability mask must be empty or size k");
  WDM_CHECK_MSG(health.channels.empty() ||
                    static_cast<std::int32_t>(health.channels.size()) == k,
                "health mask must be empty or size k");

  HealthReduction out(k);
  if (health.fiber_faulted) {
    // The fiber is cut: nothing survives. Callers reject with kFaulted
    // before scheduling, so this is a defensive all-unavailable instance.
    out.availability.assign(static_cast<std::size_t>(k), 0);
    return out;
  }

  std::vector<std::int32_t> counts = requests.counts();
  for (Channel u = 0; u < k; ++u) {
    const auto su = static_cast<std::size_t>(u);
    const bool free = available.empty() || available[su] != 0;
    out.availability[su] = free ? 1 : 0;
    switch (health.channel(u)) {
      case ChannelHealth::kHealthy:
        break;
      case ChannelHealth::kChannelFaulted:
        out.availability[su] = 0;
        break;
      case ChannelHealth::kConverterFaulted:
        // The channel's only surviving edge is to its own wavelength. If a
        // wavelength-u request exists and the channel is free, some maximum
        // matching of the fault-reduced graph grants u to one of them
        // (exchange argument: re-home any wavelength-u request matched
        // elsewhere), so pre-granting the pair and deleting u preserves the
        // maximum. If no such request exists, the channel is dead weight.
        if (free && counts[su] > 0) {
          counts[su] -= 1;
          out.pre_granted[su] = 1;
          out.pre_grant_count += 1;
        }
        out.availability[su] = 0;
        break;
    }
  }
  for (Wavelength w = 0; w < k; ++w) {
    out.requests.add(w, counts[static_cast<std::size_t>(w)]);
  }
  return out;
}

void fold_health(const RequestVector& requests,
                 std::span<const std::uint64_t> avail_words,
                 std::span<const std::uint64_t> nonempty_words,
                 const HealthMask& health, HealthFold& out) {
  const std::int32_t k = requests.k();
  const std::size_t nw = mask_words(k);
  WDM_CHECK_MSG(avail_words.size() == nw && nonempty_words.size() == nw,
                "packed masks must have mask_words(k) words");
  WDM_CHECK_MSG(health.channels.empty() ||
                    static_cast<std::int32_t>(health.channels.size()) == k,
                "health mask must be empty or size k");

  out.requests = requests;
  out.availability.assign(avail_words.begin(), avail_words.end());
  out.nonempty.assign(nonempty_words.begin(), nonempty_words.end());
  out.pre_granted.assign(nw, 0);
  if (health.fiber_faulted) {
    // As apply_health: a cut fiber leaves nothing to schedule.
    out.requests.clear();
    mask_zero(out.availability.data(), k);
    mask_zero(out.nonempty.data(), k);
    return;
  }
  if (health.channels.empty()) return;

  for (std::size_t wi = 0; wi < nw; ++wi) {
    const auto base = static_cast<std::int32_t>(wi * 64);
    const std::int32_t end = std::min(k, base + 64);
    std::uint64_t dead = 0;       // converter- or channel-faulted
    std::uint64_t converter = 0;  // converter-faulted only
    for (std::int32_t u = base; u < end; ++u) {
      const ChannelHealth h = health.channels[static_cast<std::size_t>(u)];
      const auto bit = static_cast<std::uint32_t>(u - base);
      dead |= std::uint64_t{h != ChannelHealth::kHealthy} << bit;
      converter |= std::uint64_t{h == ChannelHealth::kConverterFaulted} << bit;
    }
    // apply_health's exchange argument, one word at a time: a free
    // converter-faulted channel whose own wavelength has a request is
    // pre-granted to it, and every faulted channel leaves the row.
    const std::uint64_t take = avail_words[wi] & nonempty_words[wi] & converter;
    out.availability[wi] &= ~dead;
    out.pre_granted[wi] = take;
    for (std::uint64_t t = take; t != 0; t &= t - 1) {
      const Wavelength u = base + std::countr_zero(t);
      out.requests.remove(u);
      if (out.requests.count(u) == 0) mask_clear(out.nonempty.data(), u);
    }
  }
}

void HealthFold::write_pre_grants(ChannelAssignment& out) const {
  for (std::size_t wi = 0; wi < pre_granted.size(); ++wi) {
    for (std::uint64_t t = pre_granted[wi]; t != 0; t &= t - 1) {
      const auto u = static_cast<Channel>(wi * 64) + std::countr_zero(t);
      WDM_DCHECK(out.source[static_cast<std::size_t>(u)] == kNone);
      out.source[static_cast<std::size_t>(u)] = u;
      out.granted += 1;
    }
  }
}

}  // namespace wdm::core
