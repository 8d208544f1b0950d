// Layer cost probes: isolated harnesses that time the public calls of one
// layer each and report host nanoseconds per operation (median of
// several repetitions). Multiplying a workload's per-layer counts by
// these gives a per-layer host-time estimate without instrumenting the
// simulator itself.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// (metric name, ns per operation), in a fixed order. `reduced` runs
/// fewer operations per repetition (the benchmark's tests).
std::vector<std::pair<std::string, double>> run_probes(bool reduced);

}  // namespace perfbench
