#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>

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

FaultInjector::Thresholds FaultInjector::thresholds(
    const MtbfMttr& rates) noexcept {
  if (!rates.enabled()) return {};
  // p is in (0, 1] (both times are >= 1 slot), so ceil(p * 2^53) fits and
  // m < ceil(p * 2^53) holds exactly when uniform01() < p.
  const auto of = [](double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  };
  return {of(1.0 / rates.mtbf), of(1.0 / rates.mttr)};
}

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
  converter_rates_ = thresholds(config_.converters);
  channel_rates_ = thresholds(config_.channels);
  fiber_rates_ = thresholds(config_.fibers);
  const auto n_channels =
      static_cast<std::size_t>(n_fibers_) * static_cast<std::size_t>(k_);
  converter_down_.assign(n_channels, 0);
  channel_down_.assign(n_channels, 0);
  fiber_down_.assign(static_cast<std::size_t>(n_fibers_), 0);
  health_.assign(static_cast<std::size_t>(n_fibers_),
                 core::HealthMask::healthy(k_));
  changed_fibers_.reserve(static_cast<std::size_t>(n_fibers_));
  fiber_changed_.assign(static_cast<std::size_t>(n_fibers_), 0);
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

void FaultInjector::refresh_channel(std::size_t at) {
  const auto kk = static_cast<std::size_t>(k_);
  // A dead channel shadows a dead converter on the same channel.
  health_[at / kk].channels[at % kk] =
      channel_down_[at] != 0     ? core::ChannelHealth::kChannelFaulted
      : converter_down_[at] != 0 ? core::ChannelHealth::kConverterFaulted
                                 : core::ChannelHealth::kHealthy;
}

std::vector<std::uint8_t>& FaultInjector::down_flags(FaultKind kind) {
  switch (kind) {
    case FaultKind::kConverter:
      return converter_down_;
    case FaultKind::kChannel:
      return channel_down_;
    case FaultKind::kFiber:
      break;
  }
  return fiber_down_;
}

void FaultInjector::flip(FaultKind kind, std::size_t at, bool make_down) {
  const auto kk = static_cast<std::size_t>(k_);
  const std::size_t fiber = kind == FaultKind::kFiber ? at : at / kk;
  const std::size_t channel = kind == FaultKind::kFiber ? 0 : at % kk;
  down_flags(kind)[at] = make_down ? 1 : 0;
  if (kind == FaultKind::kFiber) {
    health_[fiber].fiber_faulted = make_down;
  } else {
    refresh_channel(at);
  }
  down_components_ += make_down ? 1 : -1;
  (make_down ? failures_ : repairs_) += 1;
  if (fiber_changed_[fiber] == 0) {
    fiber_changed_[fiber] = 1;
    changed_fibers_.push_back(static_cast<std::int32_t>(fiber));
  }
  record_fault(kind, static_cast<std::int32_t>(fiber),
               static_cast<std::int32_t>(channel), !make_down);
}

void FaultInjector::apply(FaultKind kind, std::int32_t fiber,
                          std::int32_t channel, bool repair) {
  const std::size_t at =
      kind == FaultKind::kFiber
          ? static_cast<std::size_t>(fiber)
          : static_cast<std::size_t>(fiber) * static_cast<std::size_t>(k_) +
                static_cast<std::size_t>(channel);
  // Failing a component that is down, or repairing one that is up, is a
  // no-op.
  if ((down_flags(kind)[at] != 0) != repair) return;
  flip(kind, at, !repair);
}

void FaultInjector::tick_class(FaultKind kind, Thresholds t) {
  // One draw per component whatever its state; the threshold is picked by
  // the state, and a hit always flips it. The stream runs on a local copy
  // (flip() never draws), so its state stays in registers across the loop.
  const std::vector<std::uint8_t>& down = down_flags(kind);
  util::Rng rng = rng_;
  for (std::size_t at = 0; at < down.size(); ++at) {
    const std::uint64_t m = rng.next() >> 11;
    const bool is_down = down[at] != 0;
    if (m < (is_down ? t.repair : t.fail)) [[unlikely]] {
      flip(kind, at, !is_down);
    }
  }
  rng_ = rng;
}

void FaultInjector::tick() {
  const std::uint64_t slot = slots_;
  slots_ += 1;
  clear_changed_fibers();

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
  if (config_.converters.enabled()) {
    tick_class(FaultKind::kConverter, converter_rates_);
  }
  if (config_.channels.enabled()) {
    tick_class(FaultKind::kChannel, channel_rates_);
  }
  if (config_.fibers.enabled()) {
    tick_class(FaultKind::kFiber, fiber_rates_);
  }
}

void FaultInjector::clear_changed_fibers() {
  for (const std::int32_t fiber : changed_fibers_) {
    fiber_changed_[static_cast<std::size_t>(fiber)] = 0;
  }
  changed_fibers_.clear();
}

void FaultInjector::rebuild_health() {
  for (std::size_t at = 0; at < channel_down_.size(); ++at) refresh_channel(at);
  for (std::size_t fiber = 0; fiber < fiber_down_.size(); ++fiber) {
    health_[fiber].fiber_faulted = fiber_down_[fiber] != 0;
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
  clear_changed_fibers();
}

}  // namespace wdm::sim
