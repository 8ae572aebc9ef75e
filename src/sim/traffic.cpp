#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace wdm::sim {

namespace {

TrafficConfig checked(std::int32_t n_fibers, std::int32_t k,
                      TrafficConfig config) {
  WDM_CHECK_MSG(n_fibers > 0 && k > 0, "traffic dimensions must be positive");
  WDM_CHECK_MSG(config.load >= 0.0 && config.load <= 1.0,
                "offered load must be in [0, 1]");
  WDM_CHECK_MSG(config.mean_burst_length >= 1.0,
                "mean burst length must be at least one slot");
  WDM_CHECK_MSG(config.mean_holding >= 1.0,
                "mean holding time must be at least one slot");
  WDM_CHECK_MSG(!config.class_mix.empty(), "need at least one QoS class");
  double mix_total = 0.0;
  for (const double p : config.class_mix) {
    WDM_CHECK_MSG(p >= 0.0, "class probabilities must be nonnegative");
    mix_total += p;
  }
  WDM_CHECK_MSG(mix_total > 0.99 && mix_total < 1.01,
                "class mix must sum to 1");
  return config;
}

// Two-state Markov source with stationary ON probability = load and mean ON
// duration b: p_off = 1/b, p_on = load * p_off / (1 - load).
double burst_off_probability(const TrafficConfig& config) {
  return 1.0 / config.mean_burst_length;
}

double burst_on_probability(const TrafficConfig& config) {
  return config.load >= 1.0
             ? 1.0
             : std::min(1.0, config.load * burst_off_probability(config) /
                                 (1.0 - config.load));
}

}  // namespace

TrafficGenerator::TrafficGenerator(std::int32_t n_fibers, std::int32_t k,
                                   TrafficConfig config, std::uint64_t seed)
    : n_fibers_(n_fibers),
      k_(k),
      config_(checked(n_fibers, k, std::move(config))),
      rng_(seed),
      zipf_(static_cast<std::size_t>(n_fibers),
            config_.destinations == DestinationPattern::kHotspot
                ? config_.hotspot_alpha
                : 0.0),
      arrival_(config_.load),
      burst_on_(burst_on_probability(config_)),
      burst_off_(burst_off_probability(config_)),
      holding_(config_.holding == HoldingTime::kGeometric
                   ? 1.0 / config_.mean_holding
                   : 1.0),
      class_(config_.class_mix),
      burst_dest_(static_cast<std::size_t>(n_fibers) *
                      static_cast<std::size_t>(k),
                  -1) {}

std::int32_t TrafficGenerator::sample_duration(util::Rng& rng) const {
  switch (config_.holding) {
    case HoldingTime::kSingleSlot:
      return 1;
    case HoldingTime::kFixed:
      return std::max<std::int32_t>(
          1, static_cast<std::int32_t>(std::llround(config_.mean_holding)));
    case HoldingTime::kGeometric:
      return static_cast<std::int32_t>(
          std::min<std::uint64_t>(holding_.sample(rng), 1u << 20));
  }
  return 1;
}

std::vector<core::SlotRequest> TrafficGenerator::next_slot(
    const std::vector<std::uint8_t>& input_channel_busy) {
  std::vector<core::SlotRequest> out;
  next_slot_into(input_channel_busy, out);
  return out;
}

void TrafficGenerator::next_slot_into(
    const std::vector<std::uint8_t>& input_channel_busy,
    std::vector<core::SlotRequest>& out) {
  WDM_CHECK_MSG(input_channel_busy.empty() ||
                    input_channel_busy.size() == burst_dest_.size(),
                "busy mask must cover every input wavelength channel");
  out.clear();
  const std::uint8_t* busy =
      input_channel_busy.empty() ? nullptr : input_channel_busy.data();
  if (config_.arrivals == ArrivalProcess::kBernoulli) {
    bernoulli_slot(busy, out);
  } else {
    on_off_slot(busy, out);
  }
}

// Channels are visited fiber-major (index fiber*k + wavelength) in both
// loops; the order fixes which draw feeds which channel.
void TrafficGenerator::bernoulli_slot(const std::uint8_t* busy,
                                      std::vector<core::SlotRequest>& out) {
  util::Rng rng = rng_;
  std::uint64_t id = next_id_;
  std::size_t ch = 0;
  for (std::int32_t fiber = 0; fiber < n_fibers_; ++fiber) {
    for (core::Wavelength w = 0; w < k_; ++w, ++ch) {
      if (busy != nullptr && busy[ch] != 0) continue;
      if (!arrival_.sample(rng)) continue;
      const auto dest = static_cast<std::int32_t>(zipf_.sample(rng));
      out.push_back(core::SlotRequest{fiber, w, dest, id++,
                                      sample_duration(rng),
                                      class_.sample(rng)});
    }
  }
  rng_ = rng;
  next_id_ = id;
}

void TrafficGenerator::on_off_slot(const std::uint8_t* busy,
                                   std::vector<core::SlotRequest>& out) {
  util::Rng rng = rng_;
  std::uint64_t id = next_id_;
  std::size_t ch = 0;
  for (std::int32_t fiber = 0; fiber < n_fibers_; ++fiber) {
    for (core::Wavelength w = 0; w < k_; ++w, ++ch) {
      // The Markov chain advances even while the channel is busy
      // transmitting (the burst keeps "arriving" but is suppressed).
      std::int32_t dest = burst_dest_[ch];
      if (dest < 0 && burst_on_.sample(rng)) {
        dest = static_cast<std::int32_t>(zipf_.sample(rng));
      }
      if (dest >= 0) {
        if (busy == nullptr || busy[ch] == 0) {
          out.push_back(core::SlotRequest{fiber, w, dest, id++,
                                          sample_duration(rng),
                                          class_.sample(rng)});
        }
        if (burst_off_.sample(rng)) dest = -1;
      }
      burst_dest_[ch] = dest;
    }
  }
  rng_ = rng;
  next_id_ = id;
}

void TrafficGenerator::save_state(util::SnapshotWriter& w) const {
  const auto rng = rng_.state();
  for (const auto word : rng.s) w.u64(word);
  w.u64(rng.split_counter);
  w.vec_i32(burst_dest_);
  w.u64(next_id_);
}

void TrafficGenerator::restore_state(util::SnapshotReader& r) {
  util::Rng::State rng;
  for (auto& word : rng.s) word = r.u64();
  rng.split_counter = r.u64();
  rng_.restore(rng);
  const auto burst_dest = r.vec_i32();
  WDM_CHECK_MSG(burst_dest.size() == burst_dest_.size(),
                "snapshot traffic state does not match this geometry");
  burst_dest_ = burst_dest;
  next_id_ = r.u64();
}

}  // namespace wdm::sim
