#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace perfbench {

void SpanBuffer::write_chrome_trace(std::ostream& os) const {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
     << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"slot loop\"}}";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us = static_cast<double>(s.start_ns - t0) / 1e3;
    const std::uint64_t dur_ns =
        s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    const double dur_us = static_cast<double>(dur_ns) / 1e3;
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", ts_us,
                  dur_us);
    os << ",\n{\"name\": \"" << s.name
       << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
       << buf << ", \"id\": " << s.slot << ", \"args\": {\"slot\": " << s.slot
       << ", \"parent\": ";
    if (s.parent >= 0) {
      os << "\"" << spans_[static_cast<std::size_t>(s.parent)].name << "\"";
    } else {
      os << "null";
    }
    os << ", \"index\": " << i << ", \"parent_index\": " << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
