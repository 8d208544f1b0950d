#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "apps/nas.hpp"
#include "core/calibration.hpp"
#include "core/tcp_bench.hpp"
#include "core/testbed.hpp"
#include "ib/hca.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "mpi/mpi.hpp"
#include "net/faults.hpp"
#include "net/topology.hpp"
#include "rpc/rpc.hpp"
#include "sdr/sdr.hpp"
#include "sim/rng.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace ibwan;

double UnitResult::result(std::string_view key) const {
  for (const auto& [k, v] : results) {
    if (k == key) return v;
  }
  return 0.0;
}

namespace {

constexpr sim::Duration kMs = sim::kMillisecond;

/// Phase clock of one unit: set-up until the first event is scheduled,
/// then the measured phase until the engine drains, then the audit.
class UnitTimer {
 public:
  explicit UnitTimer(UnitResult& r) : r_(r), t_(Clock::now()) {}
  void setup_done() { r_.setup_s = lap(); }
  void run_done() { r_.run_s = lap(); }
  void audit_done() { r_.audit_s = lap(); }

 private:
  double lap() {
    const double s = seconds_since(t_);
    t_ = Clock::now();
    return s;
  }
  UnitResult& r_;
  Clock::time_point t_;
};

/// Event count, engine stats and (traced) metrics of a drained testbed.
void collect(UnitResult& r, core::Testbed& tb, const RunOptions& opt) {
  r.events = tb.engine().events_executed();
  r.partitioned = tb.engine().parallel();
  r.pdes = tb.engine().stats();
  if (opt.traced) r.metrics = tb.metrics_snapshot();
}

/// Traced runs only: link/RC/SDR/KV conservation over the merged snapshot.
void audit_conservation(UnitResult& r, const RunOptions& opt) {
  if (opt.traced) check::check_conservation(r.audit, r.name, r.metrics);
}

/// Builds a unit's testbed with the run's seed and metrics setting.
std::unique_ptr<core::Testbed> build_testbed(core::TestbedOptions o,
                                             const RunOptions& opt, int id) {
  ScopedSpan span("core.testbed_build", id);
  o.seed = opt.seed;
  o.metrics = opt.traced;
  return std::make_unique<core::Testbed>(o);
}

void audit_finite(UnitResult& r) {
  for (const auto& [k, v] : r.results) {
    r.audit.expect_true("result-finite", r.name + " " + k, std::isfinite(v),
                        k + "=" + std::to_string(v));
  }
}

// ---------------------------------------------------------------------
// nas_mpi_wan: NAS class-B IS/FT/CG at 2x16 ranks, 0 / 1 ms / 10 ms.
// ---------------------------------------------------------------------

/// The NAS models draw no random numbers, so the seed reaches this
/// workload through its inputs: each delayed unit's emulated distance
/// lies up to 2 km (10 us one-way) beyond its nominal point. The
/// 0-delay units, the base of the slowdown ratio, stay at 0.
constexpr sim::Duration kNasDelayJitter = 10 * sim::kMicrosecond;

std::vector<UnitResult> run_nas_mpi_wan(const RunOptions& opt) {
  const int per_cluster = opt.reduced ? 4 : 16;
  const apps::NasConfig cfg{
      .cls = opt.reduced ? apps::NasClass::kS : apps::NasClass::kB,
      .iterations = 1};
  const std::vector<apps::NasBenchmark> benches = {
      apps::make_is(cfg), apps::make_ft(cfg), apps::make_cg(cfg)};
  const sim::Duration delays[] = {0, 1 * kMs, 10 * kMs};

  sim::Rng rng(opt.seed ^ 0x6e61732d77616e00ULL);
  std::vector<UnitResult> units;
  for (const apps::NasBenchmark& b : benches) {
    double base_s = 0;
    for (const sim::Duration nominal : delays) {
      sim::Duration delay = nominal;
      if (nominal > 0) {
        delay += static_cast<sim::Duration>(
            rng.uniform(static_cast<std::uint64_t>(kNasDelayJitter)));
      }
      UnitResult r;
      r.name = "nas-" + b.name + "-" + std::to_string(nominal / kMs) + "ms";
      const int id = static_cast<int>(units.size());
      ScopedSpan unit_span("bench.unit", id);
      UnitTimer timer(r);
      const std::unique_ptr<core::Testbed> tb =
          build_testbed({.nodes_a = per_cluster,
                         .nodes_b = per_cluster,
                         .wan_delay = delay,
                         .par_sites = 1},
                        opt, id);
      std::unique_ptr<mpi::Job> job;
      {
        ScopedSpan span("mpi.job_setup", id);
        job = std::make_unique<mpi::Job>(
            tb->fabric(),
            mpi::Job::split_placement(tb->fabric(), per_cluster));
      }
      timer.setup_done();
      double secs = 0;
      {
        ScopedSpan span("mpi.run", id);
        secs = apps::run_nas(*job, b);
      }
      timer.run_done();
      collect(r, *tb, opt);
      if (nominal == 0) base_s = secs;
      r.results = {{"runtime_s", secs},
                   {"ratio", base_s > 0 ? secs / base_s : 0.0}};
      {
        ScopedSpan span("check.audit", id);
        audit_finite(r);
        // Added WAN delay can only slow a kernel down.
        r.audit.expect_ge("nas-slowdown-floor", r.name, r.result("ratio"),
                          1.0, check::Tolerances{}.monotone_rel);
        audit_conservation(r, opt);
      }
      timer.audit_done();
      units.push_back(std::move(r));
    }
  }
  return units;
}

// ---------------------------------------------------------------------
// lossy_wan_bulk: SDR RS(16,4), SDR adaptive and TCP over IPoIB on the
// two-site testbed at 10 / 40 ms under a Gilbert-Elliott bursty plan.
// ---------------------------------------------------------------------

/// The ext_sdr_fec bursty plan: ~2% of time in a bad state that loses
/// 20% of packets. Its RNG streams derive from the testbed seed.
net::FaultPlanConfig bursty_plan() {
  net::FaultPlanConfig plan;
  plan.ge.p_good_to_bad = 0.002;
  plan.ge.p_bad_to_good = 0.1;
  plan.ge.loss_good = 0.0001;
  plan.ge.loss_bad = 0.2;
  return plan;
}

constexpr std::uint64_t kSdrMsgBytes = 2ull << 20;

UnitResult run_sdr_unit(const std::string& name, sim::Duration delay,
                        const sdr::SdrConfig& cfg, int total_msgs,
                        const RunOptions& opt, int id) {
  UnitResult r;
  r.name = name;
  ScopedSpan unit_span("bench.unit", id);
  UnitTimer timer(r);
  const net::FaultPlanConfig plan = bursty_plan();
  const std::unique_ptr<core::Testbed> tb = build_testbed(
      {.nodes_a = 1, .nodes_b = 1, .wan_delay = delay, .faults = &plan,
       .par_sites = 1},
      opt, id);
  std::unique_ptr<ib::Hca> hca_a, hca_b;
  std::unique_ptr<sdr::SdrEndpoint> src, dst;
  {
    ScopedSpan span("ib.setup", id);
    hca_a = std::make_unique<ib::Hca>(tb->fabric().node(tb->node_a()),
                                      ib::HcaConfig{});
    hca_b = std::make_unique<ib::Hca>(tb->fabric().node(tb->node_b()),
                                      ib::HcaConfig{});
  }
  {
    ScopedSpan span("sdr.setup", id);
    src = std::make_unique<sdr::SdrEndpoint>(*hca_a, cfg);
    dst = std::make_unique<sdr::SdrEndpoint>(*hca_b, cfg);
  }
  timer.setup_done();

  // A window of messages is in flight at once and each completion
  // chains the next (the ext_sdr_fec shape), so the adaptive policy's
  // loss estimate feeds back into later messages.
  constexpr int kWindow = 16;
  int issued = 0;
  int completed = 0;
  int failed = 0;
  sim::Time last_done = 0;
  std::function<void()> issue_next = [&]() {
    if (issued == total_msgs) return;
    ++issued;
    src->send(dst->dest(), kSdrMsgBytes, [&](bool ok) {
      if (ok) {
        ++completed;
        last_done = hca_a->sim().now();
      } else {
        ++failed;
      }
      issue_next();
    });
  };
  {
    ScopedSpan span("sim.run", id);
    for (int i = 0; i < kWindow; ++i) issue_next();
    tb->run();
  }
  timer.run_done();
  collect(r, *tb, opt);

  const sdr::SdrStats& tx = src->stats();
  const sdr::SdrStats& rx = dst->stats();
  const double goodput =
      last_done > 0 ? static_cast<double>(rx.msg_bytes_delivered) /
                          static_cast<double>(last_done) * 1e3
                    : 0.0;
  r.results = {{"goodput_mbs", goodput},
               {"data_chunks_sent", static_cast<double>(tx.data_chunks_sent)},
               {"parity_chunks_sent",
                static_cast<double>(tx.parity_chunks_sent)},
               {"retrans_chunks_sent",
                static_cast<double>(tx.retrans_chunks_sent)},
               {"data_chunks_delivered",
                static_cast<double>(rx.data_chunks_delivered)}};
  {
    ScopedSpan span("check.audit", id);
    audit_finite(r);
    r.audit.expect_true("unit-terminates", r.name,
                        completed == total_msgs && failed == 0,
                        "completed=" + std::to_string(completed) +
                            " failed=" + std::to_string(failed) + " of " +
                            std::to_string(total_msgs));
    const ib::HcaConfig hca;
    r.audit.expect_le(
        "sdr-wire-bound", r.name, goodput,
        check::ud_bw_model_mbps(core::fabric_defaults(1, 1), hca, hca.mtu),
        0.02);
    audit_conservation(r, opt);
  }
  timer.audit_done();
  return r;
}

UnitResult run_tcp_unit(const std::string& name, sim::Duration delay,
                        std::uint64_t bytes, const RunOptions& opt, int id) {
  UnitResult r;
  r.name = name;
  ScopedSpan unit_span("bench.unit", id);
  UnitTimer timer(r);
  const net::FaultPlanConfig plan = bursty_plan();
  const std::unique_ptr<core::Testbed> tb = build_testbed(
      {.nodes_a = 1, .nodes_b = 1, .wan_delay = delay, .faults = &plan,
       .par_sites = 1},
      opt, id);
  timer.setup_done();
  // tcp_throughput builds the IPoIB devices and TCP stacks itself, so
  // their set-up is inside this unit's measured phase.
  double mbs = 0;
  {
    ScopedSpan span("tcp.throughput", id);
    mbs = core::tcpbench::tcp_throughput(
        *tb, {.streams = 1, .bytes_per_stream = bytes});
  }
  timer.run_done();
  collect(r, *tb, opt);
  r.results = {{"goodput_mbs", mbs}};
  {
    ScopedSpan span("check.audit", id);
    audit_finite(r);
    const net::FabricConfig fc = core::fabric_defaults(1, 1);
    // 1 byte/ns of WAN rate is 1000 MB/s; headers only lower goodput.
    r.audit.expect_le("tcp-wire-bound", r.name, mbs,
                      fc.longbow.wan_rate * 1000.0);
    r.audit.expect_true("tcp-progress", r.name, mbs > 0.0,
                        "goodput=" + std::to_string(mbs));
    audit_conservation(r, opt);
  }
  timer.audit_done();
  return r;
}

std::vector<UnitResult> run_lossy_wan_bulk(const RunOptions& opt) {
  const int sdr_msgs = opt.reduced ? 4 : 32;
  const std::uint64_t tcp_bytes = opt.reduced ? (1ull << 20) : (8ull << 20);
  sdr::SdrConfig rs;
  rs.scheme = sdr::Scheme::kRs;
  rs.parity_per_group = 4;
  sdr::SdrConfig adaptive;
  adaptive.scheme = sdr::Scheme::kRs;
  adaptive.parity_per_group = 0;
  adaptive.adaptive = true;

  std::vector<UnitResult> units;
  for (const sim::Duration delay : {10 * kMs, 40 * kMs}) {
    const std::string at = '-' + std::to_string(delay / kMs) + "ms";
    units.push_back(run_sdr_unit("sdr-rs" + at, delay, rs, sdr_msgs, opt,
                                 static_cast<int>(units.size())));
    units.push_back(run_sdr_unit("sdr-adaptive" + at, delay, adaptive,
                                 sdr_msgs, opt,
                                 static_cast<int>(units.size())));
    units.push_back(run_tcp_unit("tcp" + at, delay, tcp_bytes, opt,
                                 static_cast<int>(units.size())));
  }
  return units;
}

// ---------------------------------------------------------------------
// kv_quorum_pdes: replicated KV on a 3-site full mesh at 1 ms, open-loop
// read-heavy and write-heavy mixes over RPC/RDMA and RPC/SDR. Timed on
// the sequential engine: with one LP per site the run's wall time swung
// by 2x between runs on a shared 4-vCPU host (barrier waits follow the
// neighbours' load), too wide for any bound. The traced run's PDES
// witness still runs every unit with one LP per site.
// ---------------------------------------------------------------------

enum class KvTransport { kRdma, kSdr };

struct KvMix {
  const char* name;
  double get_fraction;
  double zipf_s;  // 0 = uniform keys
};

constexpr int kKvSites = 3;
constexpr sim::Duration kKvDelay = 1 * kMs;
constexpr std::uint64_t kKvKeys = 256;
constexpr std::uint64_t kKvValueBytes = 4096;

UnitResult run_kv_unit(KvTransport transport, const KvMix& mix,
                       std::uint64_t total_ops, const RunOptions& opt,
                       int id) {
  UnitResult r;
  r.name = std::string("kv-") + mix.name +
           (transport == KvTransport::kRdma ? "-rdma" : "-sdr");
  ScopedSpan unit_span("bench.unit", id);
  UnitTimer timer(r);
  const net::TopologyConfig topo =
      net::TopologyConfig::full_mesh(kKvSites, 2);
  const std::unique_ptr<core::Testbed> tb = build_testbed(
      {.topology = &topo,
       .wan_delay = kKvDelay,
       .par_sites = opt.kv_pdes ? kKvSites : 1},
      opt, id);
  // The client shares site 0 with replica 0; every quorum of two needs
  // a reply from across the WAN.
  const net::NodeId client_node = tb->node_at(0, 1);
  sdr::SdrConfig sdr_cfg;
  sdr_cfg.scheme = sdr::Scheme::kRs;
  sdr_cfg.parity_per_group = 4;

  std::unique_ptr<ib::Hca> client_hca;
  std::vector<std::unique_ptr<ib::Hca>> hcas;
  std::vector<std::unique_ptr<kv::ReplicaServer>> replicas;
  std::vector<std::unique_ptr<rpc::RdmaRpcServer>> rdma_servers;
  std::vector<std::unique_ptr<rpc::SdrRpcServer>> sdr_servers;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  std::vector<rpc::RpcClient*> channels;
  {
    ScopedSpan span("ib.setup", id);
    client_hca = std::make_unique<ib::Hca>(tb->fabric().node(client_node),
                                           ib::HcaConfig{});
    for (int s = 0; s < kKvSites; ++s) {
      hcas.push_back(std::make_unique<ib::Hca>(
          tb->fabric().node(tb->node_at(s)), ib::HcaConfig{}));
    }
  }
  {
    ScopedSpan span("rpc.setup", id);
    for (int s = 0; s < kKvSites; ++s) {
      const net::NodeId node = tb->node_at(s);
      replicas.push_back(
          std::make_unique<kv::ReplicaServer>(tb->sim_for(node), node));
      ib::Hca& hca = *hcas[static_cast<std::size_t>(s)];
      if (transport == KvTransport::kRdma) {
        rdma_servers.push_back(std::make_unique<rpc::RdmaRpcServer>(hca));
        rdma_servers.back()->set_handler(replicas.back()->handler());
        clients.push_back(std::make_unique<rpc::RdmaRpcClient>(
            *client_hca, *rdma_servers.back()));
      } else {
        sdr_servers.push_back(
            std::make_unique<rpc::SdrRpcServer>(hca, sdr_cfg));
        sdr_servers.back()->set_handler(replicas.back()->handler());
        clients.push_back(std::make_unique<rpc::SdrRpcClient>(
            *client_hca, *sdr_servers.back(), sdr_cfg));
      }
      channels.push_back(clients.back().get());
    }
  }
  {
    ScopedSpan span("kv.preload", id);
    for (auto& rep : replicas) {
      for (std::uint64_t k = 0; k < kKvKeys; ++k) {
        rep->preload(k, kKvValueBytes);
      }
    }
  }
  kv::QuorumConfig qc;
  qc.read_quorum = 2;
  qc.write_quorum = 2;
  qc.op_timeout = 250 * kMs;
  kv::ReplicatedKv coord(tb->sim_for(client_node), client_node,
                         std::move(channels), qc);
  kv::LoadGenConfig lc;
  lc.mode = kv::ArrivalMode::kOpen;
  lc.offered_kops = 1.0;
  lc.total_ops = total_ops;
  lc.get_fraction = mix.get_fraction;
  lc.key_space = kKvKeys;
  lc.zipf_s = mix.zipf_s;
  lc.value_bytes = kKvValueBytes;
  kv::LoadGen gen(tb->sim_for(client_node), coord, lc);
  timer.setup_done();
  {
    ScopedSpan span("sim.run", id);
    gen.start();
    tb->run();
  }
  timer.run_done();
  collect(r, *tb, opt);

  const kv::LoadStats& ls = gen.stats();
  const kv::SloReport slo = kv::make_slo_report(ls);
  r.results = {{"issued", static_cast<double>(ls.issued)},
               {"completed", static_cast<double>(ls.completed)},
               {"timed_out", static_cast<double>(ls.timed_out)},
               {"aborted", static_cast<double>(ls.aborted)},
               {"goodput_kops", slo.goodput_kops},
               {"p99_us_binedge", slo.p99_us},
               {"min_us", slo.min_us},
               {"mean_us", slo.mean_us}};
  {
    ScopedSpan span("check.audit", id);
    audit_finite(r);
    r.audit.expect_true("unit-terminates", r.name, gen.done(),
                        "issued=" + std::to_string(ls.issued));
    r.audit.expect_eq_u64("kv-op-accounting", r.name,
                          ls.completed + ls.timed_out + ls.aborted, ls.issued);
    const double floor_us =
        2.0 * check::topology_oneway_floor_us(topo, 0, 1, kKvDelay);
    r.audit.expect_ge("kv-quorum-floor", r.name, slo.min_us, floor_us);
    audit_conservation(r, opt);
  }
  timer.audit_done();
  return r;
}

std::vector<UnitResult> run_kv_quorum_pdes(const RunOptions& opt) {
  const std::uint64_t ops = opt.reduced ? 40 : 400;
  const KvMix mixes[] = {{"read-heavy", 0.95, 0.99},
                         {"write-heavy", 0.10, 0.0}};
  std::vector<UnitResult> units;
  for (const KvMix& mix : mixes) {
    for (const KvTransport t : {KvTransport::kRdma, KvTransport::kSdr}) {
      units.push_back(
          run_kv_unit(t, mix, ops, opt, static_cast<int>(units.size())));
    }
  }
  return units;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"nas_mpi_wan", run_nas_mpi_wan},
      {"lossy_wan_bulk", run_lossy_wan_bulk},
      {"kv_quorum_pdes", run_kv_quorum_pdes},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t counter_sum(const sim::MetricsSnapshot& snap,
                          std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& row : snap.counters) {
    if (row.path.ends_with(suffix)) total += row.value;
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t model_digest(const std::vector<UnitResult>& units) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const UnitResult& u : units) {
    mix(u.name.data(), u.name.size());
    mix(&u.events, sizeof u.events);
    for (const auto& [k, v] : u.results) {
      mix(k.data(), k.size());
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(&bits, sizeof bits);
    }
  }
  return h;
}

}  // namespace perfbench
