#include "spans.hpp"

#include <cstdio>
#include <ostream>

namespace wirebench {

std::int32_t SpanRecorder::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_ns();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
  return self;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"wirebench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace wirebench
