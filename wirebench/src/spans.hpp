// In-memory span recording for the traced in-process run. Spans are taken
// by the benchmark around its own calls into the repository's public
// functions (nothing inside the program is instrumented). The recorder is
// single-threaded: every traced call is made from the benchmark's main
// thread, so children nest strictly inside their parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace wirebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call: name, start, end, the span that caused it (-1 for a
// root), and the id of the request (or batch) it served, shared by every
// span of that request.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  // A disabled recorder reads no clock and stores nothing; the untraced
  // pass of the overhead comparison runs the same code with it off.
  void set_enabled(bool on) { enabled_ = on; }
  void reserve(std::size_t spans) { spans_.reserve(spans); }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one. Returns its index, or -1
  // when recording is off. `name` must be a string literal.
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Per span: its duration minus the time its child spans cover.
  std::vector<std::int64_t> self_times() const;

  // Every span as a Chrome trace_event "X" event (microseconds, relative
  // to the first span), parent index and request id in `args`.
  void write_chrome_trace(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t request)
      : recorder_(recorder), index_(recorder.open(name, request)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

}  // namespace wirebench
