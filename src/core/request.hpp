// Connection requests and request vectors (Section II.B).
//
// In a slot, the requests destined for one output fiber are summarised by a
// *request vector*: a 1 x k row of per-wavelength request counts. The O(k)
// and O(dk) schedulers operate purely on this vector — requests on the same
// wavelength are interchangeable for maximising the matching size; which
// individual request wins is a separate fairness (arbitration) decision.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/wavelength.hpp"
#include "util/check.hpp"

namespace wdm::core {

/// One unicast connection request as seen by an output-fiber scheduler.
struct Request {
  std::int32_t input_fiber = 0;   ///< source fiber index in [0, N)
  Wavelength wavelength = 0;      ///< arriving wavelength in [0, k)
  std::uint64_t id = 0;           ///< caller-assigned identity (fairness, tracing)
  std::int32_t duration = 1;      ///< holding time in slots (Section V)
};

/// Per-wavelength request counts for one output fiber in one slot.
class RequestVector {
 public:
  /// Zero-wavelength placeholder for scratch that is sized by its first
  /// assignment from a real vector.
  RequestVector() = default;
  explicit RequestVector(std::int32_t k);
  /// E.g. RequestVector({2, 1, 0, 1, 1, 2}) — the paper's running example.
  RequestVector(std::initializer_list<std::int32_t> counts);

  std::int32_t k() const noexcept { return static_cast<std::int32_t>(counts_.size()); }
  std::int32_t total() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  // count/add/clear are the per-request inner operations of every kernel's
  // hot loop, so they live in the header for inlining.
  std::int32_t count(Wavelength w) const {
    WDM_CHECK(w >= 0 && w < k());
    return counts_[static_cast<std::size_t>(w)];
  }

  void add(Wavelength w, std::int32_t n = 1) {
    WDM_CHECK(w >= 0 && w < k());
    WDM_CHECK_MSG(n >= 0, "cannot add a negative number of requests");
    counts_[static_cast<std::size_t>(w)] += n;
    total_ += n;
  }

  /// Takes `n` requests of wavelength `w` back out; n <= count(w).
  void remove(Wavelength w, std::int32_t n = 1) {
    WDM_CHECK(w >= 0 && w < k());
    WDM_CHECK_MSG(n >= 0 && n <= counts_[static_cast<std::size_t>(w)],
                  "cannot remove more requests than are pending");
    counts_[static_cast<std::size_t>(w)] -= n;
    total_ -= n;
  }

  void clear() noexcept {
    counts_.assign(counts_.size(), 0);
    total_ = 0;
  }

  /// count(w) = ends[w] - ends[w-1], with ends[-1] = base: the sizes of one
  /// fiber's wavelength groups (OutputPortScheduler::schedule_groups). Also
  /// writes the packed nonempty mask (core/wave_mask.hpp layout), bit w set
  /// iff count(w) > 0, in the same pass.
  void assign_group_sizes(std::uint32_t base,
                          std::span<const std::uint32_t> ends,
                          std::uint64_t* nonempty) noexcept {
    std::int32_t* counts = counts_.data();
    const std::size_t k = counts_.size();
    std::uint32_t lo = base;
    std::uint64_t word = 0;
    for (std::size_t w = 0; w < k; ++w) {
      const std::uint32_t hi = ends[w];
      counts[w] = static_cast<std::int32_t>(hi - lo);
      word |= std::uint64_t{hi != lo} << (w % 64);
      lo = hi;
      if (w % 64 == 63 || w + 1 == k) {
        nonempty[w / 64] = word;
        word = 0;
      }
    }
    total_ = static_cast<std::int32_t>(lo - base);
  }

  const std::vector<std::int32_t>& counts() const noexcept { return counts_; }

  /// Lowest wavelength with at least one request, or kNone.
  Wavelength first_nonempty() const noexcept;

  /// Expands to one wavelength per request, sorted ascending — the paper's
  /// left-side vertex order (requests of equal wavelength are adjacent).
  std::vector<Wavelength> to_sorted_wavelengths() const;

  friend bool operator==(const RequestVector&, const RequestVector&) = default;

 private:
  std::vector<std::int32_t> counts_;
  std::int32_t total_ = 0;
};

/// Builds the request vector of a batch of requests (k wavelengths).
RequestVector make_request_vector(std::int32_t k,
                                  const std::vector<Request>& requests);

}  // namespace wdm::core
