#include "spans.h"

#include <cstdio>

namespace chainbench {

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  const TimeNs origin = kept_.empty() ? 0 : kept_.front().start;
  char line[320];
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::snprintf(
        line, sizeof line,
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %d, "
        "\"seq\": %llu, \"items\": %u}}",
        i == 0 ? "" : ",\n", kLayerNames[static_cast<std::size_t>(s.layer)],
        static_cast<double>(s.start - origin) / 1e3,
        static_cast<double>(s.end - s.start) / 1e3, s.id,
        s.parent == kNoParent ? -1 : static_cast<int>(s.parent),
        static_cast<unsigned long long>(s.seq), s.items);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "\n], \"otherData\": {\"spans_recorded\": %u, "
                "\"spans_dropped\": %llu}}\n",
                next_id_, static_cast<unsigned long long>(dropped_));
  out += line;
  return out;
}

}  // namespace chainbench
