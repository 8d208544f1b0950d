// The benchmark's three workloads. Each is a list of independent units;
// a unit is one testbed run built only from the simulator's public API.
// A unit records the host time of its set-up (everything built before
// its first event), of its measured phase (first scheduled event until
// the engine drains) and of its oracle audit, plus its modelled results
// and event count, which a speed-only change must leave bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 42;
  /// Small volumes: the benchmark's tests and the PDES exactness witness.
  bool reduced = false;
  /// Enables every testbed's MetricsRegistry and keeps its snapshot.
  bool traced = false;
  /// Run kv_quorum_pdes on SiteEngine with one LP per site instead of
  /// the sequential engine (the PDES exactness witness).
  bool kv_pdes = false;
};

struct UnitResult {
  std::string name;
  double setup_s = 0;  // host seconds before the unit's first event
  double run_s = 0;    // host seconds from first event to drain
  double audit_s = 0;  // host seconds in the oracle audit
  std::uint64_t events = 0;
  /// Modelled outputs, in a fixed order (they feed model.digest).
  std::vector<std::pair<std::string, double>> results;
  bool partitioned = false;  // ran on more than one logical process
  ibwan::sim::SiteEngine::Stats pdes{};
  ibwan::sim::MetricsSnapshot metrics;  // traced runs only
  ibwan::check::OracleReport audit;

  double result(std::string_view key) const;
};

struct Workload {
  const char* name;
  std::vector<UnitResult> (*run)(const RunOptions&);
};

/// All workloads, in the order the benchmark documents them.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// FNV-1a over every unit's name, event count and modelled results.
std::uint64_t model_digest(const std::vector<UnitResult>& units);

/// Sum of the snapshot's counters whose path ends in `suffix`, e.g.
/// "/net.link/pkts_sent" over every link instance.
std::uint64_t counter_sum(const ibwan::sim::MetricsSnapshot& snap,
                          std::string_view suffix);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench
