#include "law_probe.hpp"

#include <algorithm>
#include <span>

#include "core/scheduler.hpp"
#include "hw/hw_scheduler.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace wdm;

constexpr std::int32_t kFixedN = 64;
constexpr std::int32_t kFixedK = 16;
constexpr std::int32_t kSweepK[] = {8, 16, 32, 64};
constexpr std::int32_t kSweepN[] = {16, 64, 256};
constexpr std::size_t kProbeSlots = 8;
constexpr double kLoad = 0.8;

/// One slot's requests per output port: every input channel carries a
/// request with probability kLoad, to a uniformly chosen output fiber, so a
/// port sees about kLoad * k requests whatever N is.
using PortBatches = std::vector<std::vector<core::Request>>;

std::vector<PortBatches> make_slots(std::int32_t n, std::int32_t k,
                                    util::Rng& rng) {
  std::vector<PortBatches> slots(kProbeSlots,
                                 PortBatches(static_cast<std::size_t>(n)));
  std::uint64_t id = 0;
  for (PortBatches& ports : slots) {
    for (std::int32_t fiber = 0; fiber < n; ++fiber) {
      for (std::int32_t w = 0; w < k; ++w) {
        if (!rng.bernoulli(kLoad)) continue;
        const auto out = rng.uniform_below(static_cast<std::uint64_t>(n));
        ports[out].push_back(core::Request{fiber, w, id++, 1});
      }
    }
  }
  return slots;
}

/// Least-squares slope of y over x.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

LawRow probe(bool bfa, std::int32_t n, std::int32_t k, std::uint64_t seed,
             std::uint64_t deadline_ns, Gate& gate) {
  const core::ConversionScheme scheme =
      bfa ? core::ConversionScheme::circular(k, 1, 1)
          : core::ConversionScheme::non_circular(k, 1, 1);
  util::Rng rng(util::derive_stream_seed(
      seed, static_cast<std::uint64_t>(n * 1000 + k * 10 + (bfa ? 1 : 0))));
  const std::vector<PortBatches> slots = make_slots(n, k, rng);
  std::vector<core::OutputPortScheduler> ports;
  ports.reserve(static_cast<std::size_t>(n));
  for (std::int32_t p = 0; p < n; ++p) {
    ports.emplace_back(scheme, core::Algorithm::kAuto,
                       core::Arbitration::kRoundRobin, rng.next());
  }
  std::size_t widest = 0;
  for (const PortBatches& batches : slots) {
    for (const auto& b : batches) widest = std::max(widest, b.size());
  }
  std::vector<core::PortDecision> decisions(widest);

  LawRow row;
  row.algorithm = bfa ? "BFA" : "FA";
  row.n = n;
  row.k = k;
  row.d = scheme.degree();

  // Warm pass, checked: the kernel's grant count must equal the hardware
  // model's on every port (both are maximum matchings, all channels free).
  hw::HwPortScheduler hw(scheme, n);
  std::uint64_t hw_cycles = 0;
  for (const PortBatches& batches : slots) {
    for (std::size_t p = 0; p < batches.size(); ++p) {
      const std::span<core::PortDecision> out(decisions.data(),
                                              batches[p].size());
      ports[p].schedule_into(batches[p], {}, nullptr, out);
      std::size_t granted = 0;
      bool ok = true;
      for (const core::PortDecision& d : out) {
        granted += d.granted ? 1 : 0;
        ok = ok && (d.reason == core::RejectReason::kGranted ||
                    d.reason == core::RejectReason::kNoChannel);
      }
      hw.load(batches[p]);
      const std::size_t hw_granted = hw.run().size();
      hw_cycles += hw.cycles().total;
      gate.attempted += 1;
      if (!ok || granted != hw_granted) gate.failed += 1;
    }
  }
  const double port_calls = static_cast<double>(slots.size()) * n;
  row.hw_cycles = static_cast<double>(hw_cycles) / port_calls;

  std::vector<double> per_pass;
  do {
    const std::uint64_t t0 = util::now_ns();
    for (const PortBatches& batches : slots) {
      for (std::size_t p = 0; p < batches.size(); ++p) {
        ports[p].schedule_into(
            batches[p], {}, nullptr,
            std::span<core::PortDecision>(decisions.data(), batches[p].size()));
      }
    }
    per_pass.push_back(static_cast<double>(util::now_ns() - t0) / port_calls);
  } while (util::now_ns() < deadline_ns);
  row.ns_per_port = quantile(std::move(per_pass), 0.50);
  return row;
}

}  // namespace

LawProbe run_law_probe(std::uint64_t seed, std::uint64_t deadline_ns,
                       Gate& gate) {
  struct Shape {
    bool bfa;
    std::int32_t n;
    std::int32_t k;
  };
  std::vector<Shape> shapes;
  for (const bool bfa : {false, true}) {
    for (const std::int32_t k : kSweepK) shapes.push_back({bfa, kFixedN, k});
    for (const std::int32_t n : kSweepN) {
      if (n != kFixedN) shapes.push_back({bfa, n, kFixedK});
    }
  }
  LawProbe result;
  const std::uint64_t start = util::now_ns();
  const std::uint64_t budget = deadline_ns > start ? deadline_ns - start : 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const std::uint64_t shape_deadline =
        start + budget * (i + 1) / shapes.size();
    result.rows.push_back(probe(shapes[i].bfa, shapes[i].n, shapes[i].k, seed,
                                shape_deadline, gate));
  }

  const auto ns_at = [&](bool bfa, std::int32_t n, std::int32_t k) {
    for (const LawRow& r : result.rows) {
      if ((r.algorithm[0] == 'B') == bfa && r.n == n && r.k == k) return r;
    }
    return LawRow{};
  };
  std::vector<double> fa_k, fa_ns, bfa_dk, bfa_ns;
  for (const std::int32_t k : kSweepK) {
    const LawRow fa = ns_at(false, kFixedN, k);
    const LawRow bf = ns_at(true, kFixedN, k);
    fa_k.push_back(k);
    fa_ns.push_back(fa.ns_per_port);
    bfa_dk.push_back(static_cast<double>(bf.d) * k);
    bfa_ns.push_back(bf.ns_per_port);
  }
  result.fa_ns_per_k = slope(fa_k, fa_ns);
  result.bfa_ns_per_dk = slope(bfa_dk, bfa_ns);
  const double small_n = ns_at(true, kSweepN[0], kFixedK).ns_per_port;
  const double large_n = ns_at(true, kSweepN[2], kFixedK).ns_per_port;
  result.n_flatness = small_n > 0.0 ? large_n / small_n : 0.0;
  result.hw_cycles_fa = ns_at(false, kFixedN, kFixedK).hw_cycles;
  result.hw_cycles_bfa = ns_at(true, kFixedN, kFixedK).hw_cycles;
  return result;
}

}  // namespace perfbench
