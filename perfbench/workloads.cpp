#include "workloads.hpp"

#include <vector>

namespace perfbench {
namespace {

using namespace wdm;

// The paper's headline algorithm on healthy hardware: exact circular
// Break-and-First-Available (d = 3), where the per-fiber kernel fan-out
// carries most of Interconnect::step.
Workload healthy_bfa() {
  Workload w;
  w.name = "healthy-bfa";
  w.interconnect.n_fibers = 64;
  w.interconnect.scheme = core::ConversionScheme::circular(16, 1, 1);
  w.interconnect.arbitration = core::Arbitration::kRoundRobin;
  w.traffic.load = 0.8;
  w.traffic.arrivals = sim::ArrivalProcess::kBernoulli;
  w.traffic.destinations = sim::DestinationPattern::kUniform;
  w.traffic.holding = sim::HoldingTime::kGeometric;
  w.traffic.mean_holding = 2.0;
  w.barrier_probe = "fleet-barrier";
  w.warmup_slots = 200;
  w.measured_slots = 2000;
  w.pinned_digest = 0xd89aada78852d250;
  return w;
}

// First Available (O(k)) under overload and failing hardware: the kernel is
// cheap, so admission, ingress, retry, fault reduction and commit carry a
// large share of the slot. Channel and converter faults keep any_fault()
// true nearly every slot (about 1% of each component class is down), and
// whole-fiber faults produce the kFaulted rejections the retry queue
// re-offers.
Workload degraded_fa_overload() {
  Workload w;
  w.name = "degraded-fa-overload";
  w.interconnect.n_fibers = 256;
  w.interconnect.scheme = core::ConversionScheme::non_circular(8, 1, 1);
  w.interconnect.arbitration = core::Arbitration::kRoundRobin;
  w.interconnect.faults.channels = sim::MtbfMttr{2000.0, 20.0};
  w.interconnect.faults.converters = sim::MtbfMttr{2000.0, 20.0};
  w.interconnect.faults.fibers = sim::MtbfMttr{2000.0, 10.0};
  w.interconnect.retry.max_retries = 2;
  w.interconnect.admission.enabled = true;
  w.interconnect.admission.tokens_per_slot = 4.0;
  w.interconnect.admission.bucket_depth = 8.0;
  w.interconnect.admission.queue_capacity = 256;
  w.interconnect.admission.drop_policy = sim::DropPolicy::kPriorityShed;
  w.interconnect.admission.adaptive.enabled = true;
  w.traffic.load = 0.9;
  w.traffic.arrivals = sim::ArrivalProcess::kOnOff;
  w.traffic.mean_burst_length = 8.0;
  w.traffic.destinations = sim::DestinationPattern::kHotspot;
  w.traffic.hotspot_alpha = 1.0;
  w.traffic.holding = sim::HoldingTime::kGeometric;
  w.traffic.mean_holding = 4.0;
  w.traffic.class_mix = {0.5, 0.5};
  w.warmup_slots = 500;
  w.measured_slots = 2000;
  w.pinned_digest = 0xd870ac207927f2a9;
  return w;
}

// Three healthy-bfa shards behind the fleet's slot barrier: the per-shard
// work equals healthy-bfa, so the difference isolates barrier and driver
// cost. Three drivers plus the mostly sleeping caller fit on four CPUs.
Workload fleet_barrier() {
  Workload w = healthy_bfa();
  w.name = "fleet-barrier";
  w.shards = 3;
  w.barrier_probe = {};
  w.pinned_digest = 0x93b7b7570d8e19de;
  return w;
}

}  // namespace

std::span<const Workload> workloads() {
  static const std::vector<Workload> all = {healthy_bfa(),
                                            degraded_fa_overload(),
                                            fleet_barrier()};
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
