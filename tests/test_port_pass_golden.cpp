// Golden pin of the whole distributed port pass: request validation, the
// per-fiber grouping, the budget plan, the word kernels and arbitration.
//
// Each case drives one DistributedScheduler through a fixed-seed stream of
// slots, each slot made of one to three scheduling calls that share one
// SlotBudget. The calls mix the three entry points (a flat view with its
// bit plane, a bytes-only flat view, the nested-vector overload with ragged
// rows), health vectors (none, random faults, fiber cuts, wrong shapes),
// budgets (off, op-count ceilings, forced degradation, explicit charge
// orders) and malformed requests, some invalid in two fields at once so the
// order of the rejection reasons is pinned too. The FNV-1a hash covers
// every PortDecision field, the budget outputs and, after every slot, the
// save_state bytes (round-robin cursors and arbitration RNG streams). The
// expected values were captured before the grouping pass replaced the
// per-fiber partition and per-port CSR: any change to a grant, a channel, a
// reason, a budget charge or the arbitration draw order moves them.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/availability.hpp"
#include "core/distributed.hpp"
#include "core/wave_mask.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace wdm {
namespace {

using core::Algorithm;
using core::Arbitration;
using core::ConversionScheme;
using core::PortDecision;
using core::SlotRequest;

constexpr std::int32_t kFibers = 7;
constexpr int kSlots = 60;
constexpr std::array<Algorithm, 4> kAlgorithms{
    Algorithm::kFirstAvailable, Algorithm::kBreakFirstAvailable,
    Algorithm::kApproxBfa, Algorithm::kFullRange};
constexpr std::array<std::int32_t, 5> kKs{5, 16, 64, 70, 130};

ConversionScheme scheme_for(Algorithm algorithm, std::int32_t k) {
  const std::int32_t e = k == 5 ? 1 : k == 16 ? 2 : 3;
  const std::int32_t f = k == 5 ? 1 : k == 16 ? 1 : 2;
  switch (algorithm) {
    case Algorithm::kFirstAvailable:
      return ConversionScheme::non_circular(k, e, f);
    case Algorithm::kFullRange:
      return ConversionScheme::full_range(k);
    default:
      return ConversionScheme::circular(k, e, f);
  }
}

/// One request; about one in ten is malformed in one or two fields.
SlotRequest random_request(util::Rng& rng, std::int32_t k,
                           std::uint64_t id) {
  const auto below = [&rng](std::int64_t n) {
    return static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(n)));
  };
  SlotRequest r;
  // A hot fiber and a few hot wavelengths make same-wavelength groups big
  // enough for arbitration to matter.
  // Fiber 5 only ever receives malformed requests (below), so the budget
  // plan sees a fiber with nothing to schedule.
  r.output_fiber = rng.bernoulli(0.3) ? 2 : below(kFibers - 1);
  if (r.output_fiber >= 5) r.output_fiber += 1;
  r.wavelength = rng.bernoulli(0.4) ? below(std::min(k, 4)) : below(k);
  r.input_fiber = below(kFibers);
  r.id = id;
  r.duration = 1 + below(3);
  r.priority = below(3);
  if (!rng.bernoulli(0.1)) return r;
  const int faults = rng.bernoulli(0.4) ? 2 : 1;
  for (int i = 0; i < faults; ++i) {
    switch (below(7)) {
      case 0: r.output_fiber = rng.bernoulli(0.5) ? -1 : kFibers; break;
      case 1: r.wavelength = rng.bernoulli(0.5) ? -1 : k + below(3); break;
      case 2: r.input_fiber = -1 - below(2); break;
      case 3: r.duration = -below(2); break;
      case 4: r.priority = -1; break;
      case 5: r.wavelength = k; r.output_fiber = 5; break;
      default: r.duration = 0; r.output_fiber = 5; break;
    }
  }
  return r;
}

std::uint64_t pass_hash(Algorithm algorithm, Arbitration arbitration,
                        std::int32_t k) {
  const ConversionScheme scheme = scheme_for(algorithm, k);
  core::DistributedScheduler sched(
      kFibers, scheme, algorithm, arbitration,
      std::uint64_t{0xfeed} + static_cast<std::uint64_t>(k));
  util::Rng rng(9100 + static_cast<std::uint64_t>(k) * 7 +
                static_cast<std::uint64_t>(algorithm));
  const auto below = [&rng](std::int64_t n) {
    return static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(n)));
  };
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t words = core::mask_words(k);
  const auto n_fibers = static_cast<std::size_t>(kFibers);
  std::vector<std::uint8_t> plane(n_fibers * uk);
  std::vector<std::uint64_t> bits(n_fibers * words);
  std::vector<std::vector<std::uint8_t>> nested;
  std::vector<core::HealthMask> health;
  std::vector<std::int32_t> order(n_fibers);
  std::vector<SlotRequest> requests;
  std::vector<PortDecision> decisions;
  test::Fnv1a h;
  std::uint64_t next_id = 0;

  for (int slot = 0; slot < kSlots; ++slot) {
    core::SlotBudget budget;
    const double budget_shape = rng.uniform01();
    if (budget_shape < 0.3) {
      budget.op_budget = static_cast<std::uint64_t>(1 + below(6 * k));
    } else if (budget_shape < 0.4) {
      budget.force_degraded = true;
    }
    budget.rotation = below(2 * kFibers);
    if (rng.bernoulli(0.3)) {
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(std::span<std::int32_t>(order));
      budget.charge_order = order.data();
    }

    const int calls = 1 + below(3);
    for (int call = 0; call < calls; ++call) {
      const auto n = static_cast<std::size_t>(below(kFibers * k / 2 + 2));
      requests.clear();
      for (std::size_t i = 0; i < n; ++i) {
        requests.push_back(random_request(rng, k, next_id++));
      }
      for (auto& byte : plane) byte = rng.bernoulli(0.6) ? 1 : 0;
      for (std::size_t fiber = 0; fiber < n_fibers; ++fiber) {
        core::pack_availability(
            std::span<const std::uint8_t>(plane.data() + fiber * uk, uk), k,
            bits.data() + fiber * words);
      }

      const double health_shape = rng.uniform01();
      const std::vector<core::HealthMask>* health_ptr = nullptr;
      if (health_shape >= 0.4) {
        health.assign(health_shape < 0.43 ? n_fibers + 1 : n_fibers, {});
        for (auto& fiber_health : health) {
          fiber_health.fiber_faulted = rng.bernoulli(0.1);
          const double hs = rng.uniform01();
          if (hs < 0.05) {
            fiber_health.channels.assign(uk + 1, core::ChannelHealth::kHealthy);
          } else if (hs >= 0.3) {
            fiber_health.channels.resize(uk);
            for (auto& c : fiber_health.channels) {
              const double u = rng.uniform01();
              c = u < 0.1   ? core::ChannelHealth::kConverterFaulted
                  : u < 0.2 ? core::ChannelHealth::kChannelFaulted
                            : core::ChannelHealth::kHealthy;
            }
          }
        }
        health_ptr = &health;
      }

      decisions.assign(n, PortDecision{});
      const double entry = rng.uniform01();
      if (entry < 0.25) {
        // Nested-vector overload: ragged rows, an empty row (all free) or
        // a wrong fiber count.
        nested.assign(entry < 0.02 ? n_fibers - 1 : n_fibers, {});
        for (std::size_t fiber = 0; fiber < nested.size(); ++fiber) {
          const double row_shape = rng.uniform01();
          if (row_shape < 0.15) continue;
          const std::size_t len =
              row_shape < 0.3 ? uk + 1 - 2 * static_cast<std::size_t>(below(2))
                              : uk;
          nested[fiber].assign(len, 1);
          for (std::size_t c = 0; c < std::min(len, uk); ++c) {
            nested[fiber][c] = plane[fiber * uk + c];
          }
        }
        decisions =
            sched.schedule_slot(requests, rng.bernoulli(0.1) ? nullptr : &nested,
                                health_ptr);
      } else {
        core::AvailabilityView view;
        if (entry < 0.6) {
          view = core::AvailabilityView(plane.data(), bits.data(), kFibers, k);
        } else if (entry < 0.9) {
          view = core::AvailabilityView(plane.data(), kFibers, k);
        } else if (entry < 0.93) {
          view = core::AvailabilityView(plane.data(), kFibers - 1, k);
        }
        sched.schedule_slot_into(requests, view, health_ptr,
                                 rng.bernoulli(0.2) ? nullptr : &budget,
                                 decisions);
      }
      h.add(static_cast<std::uint64_t>(n));
      for (const auto& d : decisions) {
        h.add(d.granted);
        h.add(d.channel);
        h.add(static_cast<std::uint8_t>(d.reason));
      }
    }
    h.add(budget.ops_charged);
    h.add(budget.ops_exact_estimate);
    h.add(budget.degraded_ports);
    util::SnapshotWriter w;
    sched.save_state(w);
    for (const std::uint8_t byte : w.payload()) h.add(byte);
  }
  return h.value();
}

/// `expected` is indexed [algorithm][k] in kAlgorithms / kKs order.
void expect_golden(Arbitration arbitration,
                   const std::array<std::uint64_t, 20>& expected) {
  std::size_t idx = 0;
  for (const Algorithm algorithm : kAlgorithms) {
    for (const std::int32_t k : kKs) {
      const std::uint64_t got = pass_hash(algorithm, arbitration, k);
      EXPECT_EQ(got, expected[idx])
          << "algorithm " << static_cast<int>(algorithm) << " k=" << k
          << " hash 0x" << std::hex << got;
      ++idx;
    }
  }
}

TEST(PortPassGolden, Fifo) {
  expect_golden(Arbitration::kFifo, {{
      // FA, exact BFA, approx BFA, full range; k = 5 / 16 / 64 / 70 / 130
      0x7adaf3646c672a5eULL, 0x59959a3d2d187e53ULL, 0x280162bd961a0af8ULL,
      0x7c29a848d592fb8ULL, 0xb99743dbce1d1c50ULL,
      0x9e053ad59893ac42ULL, 0x9293be28136f2808ULL, 0x2cdf734a579dc300ULL,
      0x6af0164424949338ULL, 0xb83a89d179916457ULL,
      0xf641f3f8e0877e41ULL, 0x4b47475fac044fb6ULL, 0xe53a8b79a0597809ULL,
      0xf996ffe4101b92a6ULL, 0x4d28dc959fbd618cULL,
      0xa86f08f68660227cULL, 0x14b05ec38f884313ULL, 0x4a65961fab20827eULL,
      0xef7a19eeff6cbf1fULL, 0x13657f313e60c683ULL,
  }});
}

TEST(PortPassGolden, RoundRobin) {
  expect_golden(Arbitration::kRoundRobin, {{
      // FA, exact BFA, approx BFA, full range; k = 5 / 16 / 64 / 70 / 130
      0xd6d8946693c8320bULL, 0xd09300c2e5778613ULL, 0x99e0d2119426b822ULL,
      0x89b3605a00e91a8cULL, 0x9dca7367b1dd2638ULL,
      0x642b21e8748328f9ULL, 0x6d04a3848205d943ULL, 0xab46cc0b47c60195ULL,
      0x21218a2934e30fb5ULL, 0x94030821d3e37686ULL,
      0x5775fde76596c8d1ULL, 0xbf0f88bd3022a6faULL, 0xc0e1e3d19ed8b59fULL,
      0x1a639ffafdde45b2ULL, 0x5316123e3dedfdacULL,
      0xdd5ed59cac183a7aULL, 0x5739a3acfdd00399ULL, 0xbc0cb57867a2737dULL,
      0x7b7a07ba5272bcbfULL, 0xa94f4394ea0fb722ULL,
  }});
}

TEST(PortPassGolden, Random) {
  expect_golden(Arbitration::kRandom, {{
      // FA, exact BFA, approx BFA, full range; k = 5 / 16 / 64 / 70 / 130
      0xabf5ac5191406279ULL, 0xebe04d45e490e259ULL, 0x5cbd597ee93d9f01ULL,
      0xa72ad7d9578f4e24ULL, 0x960442732222eff7ULL,
      0x83bf0b8889f6efe0ULL, 0x32aa8ae6f5c7ad8cULL, 0xffefe4d742c88d25ULL,
      0xbc3eb411797316c3ULL, 0x62f6823681f53b79ULL,
      0x58ebd77e8ac755a0ULL, 0xbf263bd72330ad30ULL, 0xaf67ba0050143bd7ULL,
      0xda81248a6b9422f4ULL, 0xe88e188488124998ULL,
      0xf52766369592239bULL, 0x2dfb1a00465f13e0ULL, 0x9722d2703c57e8ecULL,
      0x7ac2242425201a7eULL, 0x52e12a1b2d238830ULL,
  }});
}

}  // namespace
}  // namespace wdm
