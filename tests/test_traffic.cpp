// Traffic generators: load calibration, determinism, busy suppression,
// destination patterns, holding-time distributions.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/interconnect.hpp"
#include "sim/traffic.hpp"

namespace wdm {
namespace {

using sim::ArrivalProcess;
using sim::DestinationPattern;
using sim::HoldingTime;
using sim::TrafficConfig;
using sim::TrafficGenerator;

TEST(Traffic, BernoulliLoadCalibration) {
  TrafficConfig cfg;
  cfg.load = 0.3;
  TrafficGenerator gen(4, 8, cfg, 1);
  std::uint64_t total = 0;
  const int slots = 3000;
  for (int s = 0; s < slots; ++s) total += gen.next_slot().size();
  const double per_channel =
      static_cast<double>(total) / (slots * 4.0 * 8.0);
  EXPECT_NEAR(per_channel, 0.3, 0.02);
}

TEST(Traffic, DeterministicForSeed) {
  TrafficConfig cfg;
  cfg.load = 0.5;
  TrafficGenerator a(3, 4, cfg, 99), b(3, 4, cfg, 99);
  for (int s = 0; s < 50; ++s) {
    const auto ra = a.next_slot();
    const auto rb = b.next_slot();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].input_fiber, rb[i].input_fiber);
      EXPECT_EQ(ra[i].wavelength, rb[i].wavelength);
      EXPECT_EQ(ra[i].output_fiber, rb[i].output_fiber);
    }
  }
}

TEST(Traffic, RequestsAreWellFormed) {
  TrafficConfig cfg;
  cfg.load = 0.8;
  TrafficGenerator gen(5, 6, cfg, 7);
  for (int s = 0; s < 100; ++s) {
    for (const auto& r : gen.next_slot()) {
      EXPECT_GE(r.input_fiber, 0);
      EXPECT_LT(r.input_fiber, 5);
      EXPECT_GE(r.wavelength, 0);
      EXPECT_LT(r.wavelength, 6);
      EXPECT_GE(r.output_fiber, 0);
      EXPECT_LT(r.output_fiber, 5);
      EXPECT_EQ(r.duration, 1);
    }
  }
}

TEST(Traffic, BusyChannelsAreSuppressed) {
  TrafficConfig cfg;
  cfg.load = 1.0;  // every idle channel fires
  TrafficGenerator gen(2, 3, cfg, 3);
  std::vector<std::uint8_t> busy(6, 0);
  busy[0 * 3 + 1] = 1;  // fiber 0, λ1
  busy[1 * 3 + 2] = 1;  // fiber 1, λ2
  const auto requests = gen.next_slot(busy);
  EXPECT_EQ(requests.size(), 4u);  // 6 channels - 2 busy
  for (const auto& r : requests) {
    EXPECT_FALSE(r.input_fiber == 0 && r.wavelength == 1);
    EXPECT_FALSE(r.input_fiber == 1 && r.wavelength == 2);
  }
}

TEST(Traffic, UniformDestinationsCoverAllFibers) {
  TrafficConfig cfg;
  cfg.load = 1.0;
  TrafficGenerator gen(6, 2, cfg, 11);
  std::map<std::int32_t, int> hist;
  for (int s = 0; s < 400; ++s) {
    for (const auto& r : gen.next_slot()) hist[r.output_fiber] += 1;
  }
  ASSERT_EQ(hist.size(), 6u);
  for (const auto& [fiber, count] : hist) {
    EXPECT_NEAR(count, 400 * 2, 400 * 2 / 4) << "fiber " << fiber;
  }
}

TEST(Traffic, HotspotSkewsDestinations) {
  TrafficConfig cfg;
  cfg.load = 1.0;
  cfg.destinations = DestinationPattern::kHotspot;
  cfg.hotspot_alpha = 1.5;
  TrafficGenerator gen(8, 2, cfg, 13);
  std::map<std::int32_t, int> hist;
  for (int s = 0; s < 400; ++s) {
    for (const auto& r : gen.next_slot()) hist[r.output_fiber] += 1;
  }
  EXPECT_GT(hist[0], hist[3]);
  EXPECT_GT(hist[0], hist[7]);
}

TEST(Traffic, OnOffProducesBurstsAtConfiguredLoad) {
  TrafficConfig cfg;
  cfg.load = 0.4;
  cfg.arrivals = ArrivalProcess::kOnOff;
  cfg.mean_burst_length = 5.0;
  TrafficGenerator gen(4, 4, cfg, 17);
  std::uint64_t total = 0;
  const int slots = 8000;
  for (int s = 0; s < slots; ++s) total += gen.next_slot().size();
  EXPECT_NEAR(static_cast<double>(total) / (slots * 16.0), 0.4, 0.05);
}

TEST(Traffic, OnOffBurstsShareDestination) {
  TrafficConfig cfg;
  cfg.load = 0.5;
  cfg.arrivals = ArrivalProcess::kOnOff;
  cfg.mean_burst_length = 20.0;
  TrafficGenerator gen(1, 1, cfg, 23);
  // Track destination changes on the single channel: within a burst the
  // destination is constant, so the number of distinct destinations is far
  // smaller than the number of packets.
  std::int32_t changes = 0, packets = 0, last = -1;
  for (int s = 0; s < 4000; ++s) {
    const auto reqs = gen.next_slot();
    if (reqs.empty()) {
      last = -1;
      continue;
    }
    packets += 1;
    if (last != -1 && reqs[0].output_fiber != last) changes += 1;
    last = reqs[0].output_fiber;
  }
  ASSERT_GT(packets, 100);
  EXPECT_LT(changes, packets / 5);
}

TEST(Traffic, FixedHolding) {
  TrafficConfig cfg;
  cfg.load = 1.0;
  cfg.holding = HoldingTime::kFixed;
  cfg.mean_holding = 4.0;
  TrafficGenerator gen(2, 2, cfg, 29);
  for (const auto& r : gen.next_slot()) EXPECT_EQ(r.duration, 4);
}

TEST(Traffic, GeometricHoldingMean) {
  TrafficConfig cfg;
  cfg.load = 1.0;
  cfg.holding = HoldingTime::kGeometric;
  cfg.mean_holding = 6.0;
  TrafficGenerator gen(4, 4, cfg, 31);
  double sum = 0;
  int n = 0;
  for (int s = 0; s < 400; ++s) {
    for (const auto& r : gen.next_slot()) {
      EXPECT_GE(r.duration, 1);
      sum += r.duration;
      n += 1;
    }
  }
  EXPECT_NEAR(sum / n, 6.0, 0.5);
}

TEST(Traffic, UniqueIds) {
  TrafficConfig cfg;
  cfg.load = 0.7;
  TrafficGenerator gen(3, 3, cfg, 37);
  std::set<std::uint64_t> ids;
  for (int s = 0; s < 100; ++s) {
    for (const auto& r : gen.next_slot()) {
      EXPECT_TRUE(ids.insert(r.id).second);
    }
  }
  EXPECT_EQ(ids.size(), gen.generated());
}

TEST(Traffic, InvalidConfigRejected) {
  TrafficConfig bad;
  bad.load = 1.5;
  EXPECT_THROW(TrafficGenerator(2, 2, bad, 1), std::logic_error);
  TrafficConfig bad2;
  bad2.mean_holding = 0.5;
  EXPECT_THROW(TrafficGenerator(2, 2, bad2, 1), std::logic_error);
}

// Golden request streams: an FNV-1a64 hash over every field of every request
// of 500 slots. Any change to the sampling arithmetic that alters a single
// draw (which uniform feeds which decision, a rounding in the geometric or
// Zipf inversion) moves the hash; the values were captured from the
// straightforward lower_bound / per-draw log1p / uniform01() < p sampler.
class StreamHash {
 public:
  template <typename T>
  void add(T v) {
    auto bits = static_cast<std::uint64_t>(v);
    for (std::size_t b = 0; b < sizeof(T); ++b, bits >>= 8) {
      h_ = (h_ ^ (bits & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(const std::vector<core::SlotRequest>& slot) {
    add(static_cast<std::uint64_t>(slot.size()));
    for (const auto& r : slot) {
      add(r.input_fiber);
      add(r.wavelength);
      add(r.output_fiber);
      add(r.id);
      add(r.duration);
      add(r.priority);
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr int kGoldenSlots = 500;

std::uint64_t open_loop_stream_hash(std::int32_t n, std::int32_t k,
                                    const TrafficConfig& cfg,
                                    std::uint64_t seed) {
  TrafficGenerator gen(n, k, cfg, seed);
  StreamHash h;
  for (int s = 0; s < kGoldenSlots; ++s) h.add(gen.next_slot());
  return h.value();
}

// Closed loop: the busy mask comes from a live interconnect that schedules
// (and holds) the generated requests, so suppression tracks real occupancy.
std::uint64_t closed_loop_stream_hash(std::int32_t n, std::int32_t k,
                                      const TrafficConfig& cfg,
                                      std::uint64_t seed) {
  sim::InterconnectConfig ic_cfg;
  ic_cfg.n_fibers = n;
  ic_cfg.scheme = core::ConversionScheme::circular(k, 1, 1);
  ic_cfg.seed = seed;
  sim::Interconnect ic(ic_cfg);
  TrafficGenerator gen(n, k, cfg, seed);
  StreamHash h;
  std::vector<std::uint8_t> busy;
  std::vector<core::SlotRequest> arrivals;
  for (int s = 0; s < kGoldenSlots; ++s) {
    ic.input_channel_busy_into(busy);
    gen.next_slot_into(busy, arrivals);
    h.add(arrivals);
    ic.step(arrivals);
  }
  return h.value();
}

TEST(TrafficGolden, BernoulliUniformSingleSlot) {
  TrafficConfig cfg;
  cfg.load = 0.6;
  EXPECT_EQ(open_loop_stream_hash(8, 4, cfg, 101), 0x67c34d88f8117686ULL);
}

TEST(TrafficGolden, BernoulliGeometricHolding) {
  TrafficConfig cfg;
  cfg.load = 0.7;
  cfg.holding = HoldingTime::kGeometric;
  cfg.mean_holding = 3.5;
  EXPECT_EQ(open_loop_stream_hash(8, 4, cfg, 202), 0xa1425d49ff9142e0ULL);
}

TEST(TrafficGolden, OnOffZipfGeometricTwoClasses) {
  TrafficConfig cfg;
  cfg.load = 0.8;
  cfg.arrivals = ArrivalProcess::kOnOff;
  cfg.mean_burst_length = 6.0;
  cfg.destinations = DestinationPattern::kHotspot;
  cfg.hotspot_alpha = 1.2;
  cfg.holding = HoldingTime::kGeometric;
  cfg.mean_holding = 2.5;
  cfg.class_mix = {0.3, 0.7};
  EXPECT_EQ(open_loop_stream_hash(16, 4, cfg, 303), 0x9cec3db4cb4852bbULL);
}

TEST(TrafficGolden, BernoulliBusySuppressionFromInterconnect) {
  TrafficConfig cfg;
  cfg.load = 0.9;
  cfg.destinations = DestinationPattern::kHotspot;
  cfg.hotspot_alpha = 0.8;
  cfg.holding = HoldingTime::kGeometric;
  cfg.mean_holding = 4.0;
  EXPECT_EQ(closed_loop_stream_hash(8, 8, cfg, 404), 0x693b2e6c88cd8202ULL);
}

TEST(TrafficGolden, OnOffBusySuppressionFromInterconnect) {
  TrafficConfig cfg;
  cfg.load = 0.9;
  cfg.arrivals = ArrivalProcess::kOnOff;
  cfg.mean_burst_length = 4.0;
  cfg.holding = HoldingTime::kGeometric;
  cfg.mean_holding = 3.0;
  cfg.class_mix = {0.5, 0.25, 0.25};
  EXPECT_EQ(closed_loop_stream_hash(8, 8, cfg, 505), 0x6cd728fda2f61422ULL);
}

}  // namespace
}  // namespace wdm
