// Simulator-cost benchmark (see ../README.md).
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--reduced] [--trace-out FILE]
//
// Untraced (--trace 0): repeats the workload until S seconds have been
// measured and reports the end-to-end metrics (median over repetitions)
// with tracing off. Traced (--trace 1): runs untraced repetitions for
// half the time, then traced ones (spans + MetricsRegistry on) for the
// rest, and reports the per-layer metrics plus the layer cost probes.
// Either way the last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> "
               "[--seed N] [--seconds S] [--trace 0|1] [--reduced] "
               "[--trace-out FILE]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      if (!parse_u64(value(), a.seed)) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(value(), n) || n == 0 || n > 3600) {
        usage("--seconds takes an integer in [1, 3600]");
      }
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value(), n) || n > 1) usage("--trace takes 0 or 1");
      a.trace = n == 1;
    } else if (flag == "--reduced") {
      a.reduced = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else {
      usage("unknown argument");
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown --workload");
  return a;
}

/// Peak resident set of this process image in MiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is only the fallback, since
/// Linux carries it across exec, so a run launched from a larger parent
/// (run.py) would report the parent's peak instead.
double peak_rss_mib() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib <= 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = static_cast<double>(ru.ru_maxrss);
  }
  return kib / 1024.0;
}

/// One repetition of a workload: every unit, plus its totals.
struct Rep {
  std::vector<UnitResult> units;
  double wall_s = 0;
  double setup_s = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  int failed = 0;
};

Rep run_rep(const Workload& w, const RunOptions& opt) {
  Rep rep;
  rep.units = w.run(opt);
  for (const UnitResult& u : rep.units) {
    rep.wall_s += u.run_s;
    rep.setup_s += u.setup_s;
    rep.events += u.events;
    if (!u.audit.ok()) {
      ++rep.failed;
      std::fprintf(stderr, "perfbench: unit %s failed its audit:\n%s",
                   u.name.c_str(), u.audit.failure_log().c_str());
    }
  }
  rep.digest = model_digest(rep.units);
  return rep;
}

/// Tallies repetitions and checks that each reproduces the first.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  bool seen = false;

  void add(const Rep& rep, const char* what) {
    attempted += rep.units.size();
    failed += static_cast<std::uint64_t>(rep.failed);
    if (!seen) {
      seen = true;
      digest = rep.digest;
      events = rep.events;
    } else if (rep.digest != digest || rep.events != events) {
      deterministic = false;
      std::fprintf(stderr,
                   "perfbench: %s repetition diverged: digest %016" PRIx64
                   " events %" PRIu64 " vs %016" PRIx64 " events %" PRIu64
                   "\n",
                   what, rep.digest, rep.events, digest, events);
    }
  }
  bool correct() const { return failed == 0 && deterministic; }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for host times that are exactly zero on workloads that never
  /// call the layer; they are printed but left out of the JSON result.
  bool in_result = true;
};

void print_result(const Tally& tally, bool correct,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Digest as a JSON-safe integer (top 53 bits).
double digest_value(std::uint64_t d) { return static_cast<double>(d >> 11); }

std::uint64_t counter_total(const std::vector<UnitResult>& units,
                            std::string_view suffix) {
  std::uint64_t total = 0;
  for (const UnitResult& u : units) total += counter_sum(u.metrics, suffix);
  return total;
}

double unit_result(const std::vector<UnitResult>& units,
                   std::string_view unit, std::string_view key) {
  for (const UnitResult& u : units) {
    if (u.name == unit) return u.result(key);
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int run_untraced(const Workload& w, const Args& args) {
  RunOptions opt{.seed = args.seed, .reduced = args.reduced};
  Tally tally;
  // Warm-up repetition: fills allocator pools and page tables; audited
  // and checked for determinism like the rest, but not timed.
  tally.add(run_rep(w, opt), "warm-up");
  std::vector<double> wall, setup;
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  while (wall.size() < 3 || seconds_since(t0) < args.seconds) {
    rep = run_rep(w, opt);
    tally.add(rep, "timed");
    wall.push_back(rep.wall_s);
    setup.push_back(rep.setup_s);
  }
  const double fail_ratio = ratio(static_cast<double>(tally.failed),
                                  static_cast<double>(tally.attempted));
  std::printf("perfbench %s seed=%" PRIu64 " untraced: %zu timed reps\n",
              w.name, args.seed, wall.size());
  std::printf("last repetition, per unit:\n");
  for (const UnitResult& u : rep.units) {
    std::printf("  %-24s setup %.6f s  run %.6f s  %" PRIu64 " events\n",
                u.name.c_str(), u.setup_s, u.run_s, u.events);
  }
  const std::vector<Metric> e2e = {{"wall_s", median(wall), "s"},
                                   {"setup_s", median(setup), "s"},
                                   {"peak_rss_mb", peak_rss_mib(), "MiB"}};
  print_table("end to end:", e2e);
  print_table("failures:", {{"unit_fail_ratio", fail_ratio, "ratio"}});
  std::printf("  sim.events %" PRIu64 "  model.digest %016" PRIx64 "\n",
              tally.events, tally.digest);
  print_result(tally, tally.correct(), e2e);
  return 0;
}

int run_traced(const Workload& w, const Args& args) {
  const RunOptions plain{.seed = args.seed, .reduced = args.reduced};
  RunOptions traced = plain;
  traced.traced = true;
  Tally tally;
  const double half = args.seconds / 2;

  tally.add(run_rep(w, plain), "warm-up");
  std::vector<double> plain_wall;
  Clock::time_point t0 = Clock::now();
  while (plain_wall.size() < 2 || seconds_since(t0) < half) {
    const Rep rep = run_rep(w, plain);
    tally.add(rep, "untraced");
    plain_wall.push_back(rep.wall_s);
  }

  SpanRecorder recorder;
  set_active_recorder(&recorder);
  std::vector<double> traced_wall;
  std::map<std::string, std::vector<double>> self_s;
  Rep last;
  t0 = Clock::now();
  while (traced_wall.size() < 2 || seconds_since(t0) < half) {
    const std::size_t first_span = recorder.spans().size();
    Rep rep = run_rep(w, traced);
    // Tracing must not perturb the simulation: every traced repetition
    // must reproduce the untraced digest and event count.
    tally.add(rep, "traced");
    traced_wall.push_back(rep.wall_s);
    for (const auto& [name, s] : recorder.self_seconds(first_span)) {
      self_s[name].push_back(s);
    }
    last = std::move(rep);
  }

  // PDES exactness witness, at reduced size: one LP per site and the
  // sequential engine must agree bit for bit.
  bool pdes_exact = true;
  Rep par_rep, seq_rep;
  const bool witness = std::string_view(w.name) == "kv_quorum_pdes";
  if (witness) {
    const RunOptions seq{.seed = args.seed, .reduced = true};
    RunOptions par = seq;
    par.kv_pdes = true;
    par_rep = run_rep(w, par);
    seq_rep = run_rep(w, seq);
    tally.attempted += par_rep.units.size() + seq_rep.units.size();
    tally.failed +=
        static_cast<std::uint64_t>(par_rep.failed + seq_rep.failed);
    pdes_exact = par_rep.digest == seq_rep.digest &&
                 par_rep.events == seq_rep.events;
  }

  const std::vector<std::pair<std::string, double>> probes =
      run_probes(args.reduced);
  set_active_recorder(nullptr);
  if (!args.trace_out.empty() &&
      !recorder.write_chrome_trace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return 1;
  }

  const std::vector<UnitResult>& u = last.units;
  // Engine stats of partitioned units: the PDES witness's, since every
  // timed workload runs sequentially.
  double pdes_windows = 0, pdes_msgs = 0, pdes_ties = 0, pdes_events = 0;
  for (const UnitResult& r : par_rep.units) {
    if (!r.partitioned) continue;
    pdes_windows += static_cast<double>(r.pdes.windows);
    pdes_msgs += static_cast<double>(r.pdes.channel_msgs);
    pdes_ties += static_cast<double>(r.pdes.tie_arrivals);
    pdes_events += static_cast<double>(r.events);
  }
  const auto self = [&self_s](const char* span) {
    auto it = self_s.find(span);
    return it == self_s.end() ? 0.0 : median(it->second);
  };
  const auto count = [&u](const char* suffix) {
    return static_cast<double>(counter_total(u, suffix));
  };
  double audit_violations = 0, kv_issued = 0, kv_completed = 0;
  for (const UnitResult& r : u) {
    audit_violations += static_cast<double>(r.audit.failures());
    kv_issued += r.result("issued");
    kv_completed += r.result("completed");
  }
  const double sim_run_s = median(traced_wall);
  const double chunks_sent = count("/sdr/data_chunks_sent") +
                             count("/sdr/parity_chunks_sent") +
                             count("/sdr/retrans_chunks_sent");

  std::vector<Metric> m = {
      {"core.testbed_build_s", self("core.testbed_build"), "s"},
      {"sim.events", static_cast<double>(last.events), "count"},
      {"sim.run_s", sim_run_s, "s"},
      {"sim.events_per_s", ratio(static_cast<double>(last.events), sim_run_s),
       "1/s"},
      {"sim.pdes.windows", pdes_windows, "count"},
      {"sim.pdes.channel_msgs", pdes_msgs, "count"},
      {"sim.pdes.tie_arrivals", pdes_ties, "count"},
      {"sim.pdes.events_per_window", ratio(pdes_events, pdes_windows),
       "count"},
      {"net.link.pkts_sent", count("/net.link/pkts_sent"), "count"},
      {"net.switch.pkts_forwarded", count("/net.switch/pkts_forwarded"),
       "count"},
      {"net.wan.pkts_forwarded", count("/net.wan/pkts_forwarded"), "count"},
      {"net.link.drops_fault", count("/net.link/drops_fault"), "count"},
      {"ib.setup_s", self("ib.setup"), "s", false},
      {"ib.rc.msgs_sent", count("/ib.rc/msgs_sent"), "count"},
      {"ib.rc.acks_sent", count("/ib.rc/acks_sent"), "count"},
      {"ib.rc.pkts_retransmitted", count("/ib.rc/pkts_retransmitted"),
       "count"},
      {"ib.ud.datagrams_sent", count("/ib.ud/datagrams_sent"), "count"},
      {"mpi.job_setup_s", self("mpi.job_setup"), "s", false},
      {"mpi.run_s", self("mpi.run"), "s", false},
      {"mpi.eager_sent", count("/mpi/eager_sent"), "count"},
      {"mpi.rndv_sent", count("/mpi/rndv_sent"), "count"},
      {"mpi.unexpected", count("/mpi/unexpected"), "count"},
      {"tcp.segs_sent", count("/tcp/segs_sent"), "count"},
      {"tcp.retransmits", count("/tcp/retransmits"), "count"},
      {"tcp.rto_fires", count("/tcp/rto_fires"), "count"},
      {"tcp.sack_hole_retransmits", count("/tcp/sack_hole_retransmits"),
       "count"},
      {"sdr.data_chunks_sent", count("/sdr/data_chunks_sent"), "count"},
      {"sdr.parity_chunks_sent", count("/sdr/parity_chunks_sent"), "count"},
      {"sdr.retrans_chunks_sent", count("/sdr/retrans_chunks_sent"),
       "count"},
      {"sdr.chunks_repaired", count("/sdr/chunks_repaired"), "count"},
      {"sdr.nacks_sent", count("/sdr/nacks_sent"), "count"},
      {"sdr.useful_chunk_ratio",
       ratio(count("/sdr/data_chunks_delivered"), chunks_sent), "ratio"},
      {"rpc.rdma.calls", count("/rpc.rdma/calls"), "count"},
      {"rpc.sdr.calls", count("/rpc.sdr/calls"), "count"},
      {"rpc.retries", count("/rpc.tcp/retries") + count("/rpc.sdr/retries"),
       "count"},
      {"rpc.call_failures",
       count("/rpc.tcp/call_failures") + count("/rpc.rdma/call_failures") +
           count("/rpc.sdr/call_failures"),
       "count"},
      {"kv.preload_s", self("kv.preload"), "s", false},
      {"kv.client.replica_calls", count("/kv.client/replica_calls"), "count"},
      {"kv.client.retries", count("/kv.client/retries"), "count"},
      {"kv.client.read_repairs", count("/kv.client/read_repairs"), "count"},
      {"kv.replica.writes_stale", count("/kv.replica/writes_stale"),
       "count"},
      {"kv.ok_ratio", ratio(kv_completed, kv_issued), "ratio"},
      {"check.audit_s", self("check.audit"), "s"},
      {"check.violations", audit_violations, "count"},
      {"model.digest", digest_value(last.digest), "hash"},
      {"model.nas_ft_s", unit_result(u, "nas-FT-10ms", "runtime_s"),
       "sim_s"},
      {"model.nas_is_s", unit_result(u, "nas-IS-10ms", "runtime_s"),
       "sim_s"},
      {"model.nas_cg_s", unit_result(u, "nas-CG-10ms", "runtime_s"),
       "sim_s"},
      {"model.sdr_goodput_mbs", unit_result(u, "sdr-rs-40ms", "goodput_mbs"),
       "MB/s"},
      {"model.tcp_goodput_mbs", unit_result(u, "tcp-40ms", "goodput_mbs"),
       "MB/s"},
      {"model.kv_goodput_kops",
       unit_result(u, "kv-read-heavy-rdma", "goodput_kops"), "kops/s"},
      {"model.kv_p99_us_binedge",
       unit_result(u, "kv-read-heavy-rdma", "p99_us_binedge"), "sim_us"},
      {"trace.overhead_s", sim_run_s - median(plain_wall), "s"},
  };
  for (const auto& [name, ns] : probes) m.push_back({name, ns, "ns"});

  std::printf("perfbench %s seed=%" PRIu64
              " traced: %zu untraced + %zu traced reps\n",
              w.name, args.seed, plain_wall.size(), traced_wall.size());
  print_table("per layer:", m);
  std::printf("  sim.events %" PRIu64 "  model.digest %016" PRIx64 "\n",
              tally.events, tally.digest);
  if (witness) {
    std::printf("  pdes witness (reduced): one LP per site %016" PRIx64
                " / %" PRIu64 " events, sequential %016" PRIx64 " / %" PRIu64
                " events\n",
                par_rep.digest, par_rep.events, seq_rep.digest,
                seq_rep.events);
  }
  if (!pdes_exact) {
    std::fprintf(stderr, "perfbench: PDES witness diverged from the "
                         "sequential engine\n");
  }
  print_result(tally, tally.correct() && pdes_exact, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  const perfbench::Workload& w = *perfbench::find_workload(args.workload);
  return args.trace ? perfbench::run_traced(w, args)
                    : perfbench::run_untraced(w, args);
}
