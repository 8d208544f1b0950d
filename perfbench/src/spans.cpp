#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {
SpanRecorder* g_recorder = nullptr;

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}
}  // namespace

SpanRecorder* active_recorder() { return g_recorder; }
void set_active_recorder(SpanRecorder* rec) { g_recorder = rec; }

int SpanRecorder::open(std::string name, int unit) {
  const int index = static_cast<int>(spans_.size());
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.unit = unit;
  s.start_ns = ns_since(epoch_);
  spans_.push_back(std::move(s));
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns_since(epoch_);
  // Spans are scoped, so the closing span is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds(
    std::size_t from) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || s.parent < 0) continue;
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::size_t dot = s.name.find('.');
    const std::string layer = s.name.substr(0, dot);
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%d}}",
                 first ? "" : ",", s.name.c_str(), layer.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.unit);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
