// Benchmark-side spans of the traced run: a preallocated in-memory buffer
// filled around the calls into each layer and written out once, as a
// Chrome/Perfetto trace, when the run ends. Recording never allocates; when
// the buffer is full further spans are counted as dropped.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";        ///< static string: the layer call timed
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t slot = 0;       ///< slot index; also the span's trace id
  std::int32_t parent = -1;     ///< index of the enclosing slot span, or -1
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Records a span and returns its index, or -1 when the buffer is full.
  std::int32_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t slot,
                   std::int32_t parent = -1) noexcept {
    if (spans_.size() == spans_.capacity()) {
      dropped_ += 1;
      return -1;
    }
    spans_.push_back(Span{name, start_ns, end_ns, slot, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  std::size_t size() const noexcept { return spans_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// `{"traceEvents": [...]}` with one complete ("X") event per span,
  /// timestamps in microseconds from the earliest span.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
