#include "sim/faults.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace wdm::sim {

namespace {

void check_rates(const MtbfMttr& rates, const char* what) {
  if (!rates.enabled()) return;
  WDM_CHECK_MSG(rates.mtbf >= 1.0, std::string(what) + " MTBF must be >= 1 slot");
  WDM_CHECK_MSG(rates.mttr >= 1.0, std::string(what) + " MTTR must be >= 1 slot");
}

}  // namespace

FaultInjector::FaultInjector(std::int32_t n_fibers, std::int32_t k,
                             FaultConfig config, std::uint64_t seed)
    : n_fibers_(n_fibers), k_(k), config_(std::move(config)), rng_(seed) {
  WDM_CHECK_MSG(n_fibers > 0 && k > 0, "fault geometry must be positive");
  check_rates(config_.converters, "converter");
  check_rates(config_.channels, "channel");
  check_rates(config_.fibers, "fiber");
  for (const auto& ev : config_.script) {
    WDM_CHECK_MSG(ev.fiber >= 0 && ev.fiber < n_fibers_,
                  "scripted fault fiber out of range");
    if (ev.kind != FaultKind::kFiber) {
      WDM_CHECK_MSG(ev.channel >= 0 && ev.channel < k_,
                    "scripted fault channel out of range");
    }
  }
  std::stable_sort(config_.script.begin(), config_.script.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.slot < b.slot;
                   });
  const auto n_channels =
      static_cast<std::size_t>(n_fibers_) * static_cast<std::size_t>(k_);
  converter_down_.assign(n_channels, 0);
  channel_down_.assign(n_channels, 0);
  fiber_down_.assign(static_cast<std::size_t>(n_fibers_), 0);
  health_.assign(static_cast<std::size_t>(n_fibers_),
                 core::HealthMask::healthy(k_));
}

bool FaultInjector::set_state(std::uint8_t& down, bool make_down) {
  if (down == (make_down ? 1 : 0)) return false;
  down = make_down ? 1 : 0;
  down_components_ += make_down ? 1 : -1;
  (make_down ? failures_ : repairs_) += 1;
  return true;
}

void FaultInjector::record_fault(FaultKind kind, std::int32_t fiber,
                                 std::int32_t channel, bool repair) {
  if (telemetry_ == nullptr || !telemetry_->at(obs::TraceDetail::kSlots)) {
    return;
  }
  obs::TraceEvent e;
  e.ts_ns = util::now_ns();
  // tick() bumps slots_ before applying this slot's transitions.
  e.slot = slots_ > 0 ? slots_ - 1 : 0;
  e.a = static_cast<std::uint64_t>(channel);
  e.fiber = fiber;
  e.kind = repair ? obs::EventKind::kFaultRepair : obs::EventKind::kFaultFail;
  e.detail = static_cast<std::uint8_t>(kind);
  telemetry_->record(e);
}

void FaultInjector::apply(FaultKind kind, std::int32_t fiber,
                          std::int32_t channel, bool repair) {
  const std::size_t at = static_cast<std::size_t>(fiber) *
                             static_cast<std::size_t>(k_) +
                         static_cast<std::size_t>(channel);
  bool flipped = false;
  switch (kind) {
    case FaultKind::kConverter:
      flipped = set_state(converter_down_[at], !repair);
      break;
    case FaultKind::kChannel:
      flipped = set_state(channel_down_[at], !repair);
      break;
    case FaultKind::kFiber:
      flipped = set_state(fiber_down_[static_cast<std::size_t>(fiber)], !repair);
      break;
  }
  if (flipped) record_fault(kind, fiber, channel, repair);
}

void FaultInjector::tick() {
  const std::uint64_t slot = slots_;
  slots_ += 1;

  // Scripted events for this slot (the script is sorted by slot).
  while (next_event_ < config_.script.size() &&
         config_.script[next_event_].slot <= slot) {
    const auto& ev = config_.script[next_event_];
    if (ev.slot == slot) apply(ev.kind, ev.fiber, ev.channel, ev.repair);
    next_event_ += 1;
  }

  // Stochastic transitions. Every enabled component draws exactly one
  // variate per slot whatever its state, so the stream position depends
  // only on (geometry, slot) — a fault schedule replays from its seed and
  // stays aligned under any mixture of scripted and stochastic events.
  // The per-class rates are read into locals once: the lambda's uint8_t&
  // stores may alias config_, so the compiler cannot hoist 1/mtbf and
  // 1/mttr out of the loops itself. Same doubles, same fault schedule.
  const auto transition = [&](std::uint8_t& down, double p_fail,
                              double p_repair, FaultKind kind,
                              std::int32_t fiber, std::int32_t channel) {
    const double u = rng_.uniform01();
    if (down == 0) {
      if (u < p_fail && set_state(down, true)) {
        record_fault(kind, fiber, channel, false);
      }
    } else {
      if (u < p_repair && set_state(down, false)) {
        record_fault(kind, fiber, channel, true);
      }
    }
  };
  if (config_.converters.enabled()) {
    const double p_fail = 1.0 / config_.converters.mtbf;
    const double p_repair = 1.0 / config_.converters.mttr;
    for (std::size_t at = 0; at < converter_down_.size(); ++at) {
      transition(converter_down_[at], p_fail, p_repair, FaultKind::kConverter,
                 static_cast<std::int32_t>(at) / k_,
                 static_cast<std::int32_t>(at) % k_);
    }
  }
  if (config_.channels.enabled()) {
    const double p_fail = 1.0 / config_.channels.mtbf;
    const double p_repair = 1.0 / config_.channels.mttr;
    for (std::size_t at = 0; at < channel_down_.size(); ++at) {
      transition(channel_down_[at], p_fail, p_repair, FaultKind::kChannel,
                 static_cast<std::int32_t>(at) / k_,
                 static_cast<std::int32_t>(at) % k_);
    }
  }
  if (config_.fibers.enabled()) {
    const double p_fail = 1.0 / config_.fibers.mtbf;
    const double p_repair = 1.0 / config_.fibers.mttr;
    for (std::size_t fiber = 0; fiber < fiber_down_.size(); ++fiber) {
      transition(fiber_down_[fiber], p_fail, p_repair, FaultKind::kFiber,
                 static_cast<std::int32_t>(fiber), 0);
    }
  }

  rebuild_health();
}

void FaultInjector::rebuild_health() {
  for (std::int32_t fiber = 0; fiber < n_fibers_; ++fiber) {
    auto& mask = health_[static_cast<std::size_t>(fiber)];
    mask.fiber_faulted = fiber_down_[static_cast<std::size_t>(fiber)] != 0;
    for (std::int32_t ch = 0; ch < k_; ++ch) {
      const std::size_t at = static_cast<std::size_t>(fiber) *
                                 static_cast<std::size_t>(k_) +
                             static_cast<std::size_t>(ch);
      // A dead channel shadows a dead converter on the same channel.
      mask.channels[static_cast<std::size_t>(ch)] =
          channel_down_[at] != 0    ? core::ChannelHealth::kChannelFaulted
          : converter_down_[at] != 0 ? core::ChannelHealth::kConverterFaulted
                                     : core::ChannelHealth::kHealthy;
    }
  }
}

void FaultInjector::save_state(util::SnapshotWriter& w) const {
  const auto rng = rng_.state();
  for (const auto word : rng.s) w.u64(word);
  w.u64(rng.split_counter);
  w.u64(slots_);
  w.u64(next_event_);
  w.vec_u8(converter_down_);
  w.vec_u8(channel_down_);
  w.vec_u8(fiber_down_);
  w.i64(down_components_);
  w.u64(failures_);
  w.u64(repairs_);
}

void FaultInjector::restore_state(util::SnapshotReader& r) {
  util::Rng::State rng;
  for (auto& word : rng.s) word = r.u64();
  rng.split_counter = r.u64();
  rng_.restore(rng);
  slots_ = r.u64();
  next_event_ = r.u64();
  const auto converter_down = r.vec_u8();
  const auto channel_down = r.vec_u8();
  const auto fiber_down = r.vec_u8();
  WDM_CHECK_MSG(converter_down.size() == converter_down_.size() &&
                    channel_down.size() == channel_down_.size() &&
                    fiber_down.size() == fiber_down_.size(),
                "snapshot fault state does not match this geometry");
  converter_down_ = converter_down;
  channel_down_ = channel_down;
  fiber_down_ = fiber_down;
  down_components_ = r.i64();
  failures_ = r.u64();
  repairs_ = r.u64();
  rebuild_health();
}

}  // namespace wdm::sim
