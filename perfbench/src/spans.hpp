// Benchmark-side spans: host-time intervals recorded around each call
// the benchmark makes into a simulator layer's public API. Spans nest
// (a unit span holds its setup, run and audit spans); a layer's self
// time is its spans' durations minus the parts their child spans cover.
//
// Recording is off unless a SpanRecorder is installed, so an untraced
// run pays one null check per span. Spans stay in memory and are
// written once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the host's monotonic clock.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;    // "<layer>.<call>", e.g. "mpi.job_setup"
    std::int64_t start_ns = 0;  // relative to the recorder's epoch
    std::int64_t end_ns = -1;   // -1 while open
    int parent = -1;     // index of the enclosing span, -1 at top level
    int unit = -1;       // spans of one workload unit share this id
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, int unit);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name over closed spans with index >= `from`:
  /// duration minus the time covered by direct children.
  std::map<std::string, double> self_seconds(std::size_t from = 0) const;

  /// Chrome trace-event JSON ("X" complete events; args carry the
  /// parent span index and the unit id). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The recorder spans go to, or nullptr when tracing is off.
SpanRecorder* active_recorder();
void set_active_recorder(SpanRecorder* rec);

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int unit) {
    if (SpanRecorder* rec = active_recorder()) {
      rec_ = rec;
      index_ = rec->open(name, unit);
    }
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_ = nullptr;
  int index_ = -1;
};

}  // namespace perfbench
