// PDES differential oracle (DESIGN.md §13): small versions of the
// paper's heavy scenarios (fig5 RC bandwidth, fig12 NAS, ext_kv, TCP
// on a lossy WAN)
// executed on the sequential engine (IBWAN_THREADS=1, the exact path
// the committed CSVs were generated with) and site-parallel under 2
// and 4 worker threads. Simulated results, total event counts, merged
// end times, and the metrics JSON export must be *bitwise* identical —
// site-parallel execution is a pure wall-clock optimization, so any
// difference is a determinism bug, not a tolerance question.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/nas.hpp"
#include "core/tcp_bench.hpp"
#include "core/testbed.hpp"
#include "ib/hca.hpp"
#include "ib/perftest.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "mpi/mpi.hpp"
#include "net/faults.hpp"
#include "rpc/rpc.hpp"
#include "sim/metrics.hpp"

namespace ibwan {
namespace {

struct Outcome {
  double result = 0;           // scenario's headline number
  std::uint64_t events = 0;    // events across all sites
  sim::Time end = 0;           // merged simulated end time
  int sites = 0;               // partition actually constructed
  std::string metrics_json;    // full metrics export, bytes
};

std::string json_of(const sim::MetricsSnapshot& snap) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  snap.write_json(f);
  std::fclose(f);
  std::string s(buf, len);
  std::free(buf);
  return s;
}

Outcome fig5_small() {
  core::Testbed tb(core::TestbedOptions{.wan_delay = 1'000'000,
                                        .metrics = true,
                                        .par_sites = 2});
  Outcome o;
  o.result = ib::perftest::run_bandwidth(
                 tb.fabric(), tb.node_a(), tb.node_b(),
                 ib::perftest::Transport::kRc,
                 {.msg_size = 64u << 10, .iterations = 64})
                 .mbytes_per_sec;
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

Outcome fig12_small() {
  core::Testbed tb(core::TestbedOptions{.nodes_a = 4,
                                        .nodes_b = 4,
                                        .wan_delay = 1'000'000,
                                        .metrics = true,
                                        .par_sites = 2});
  mpi::Job job(tb.fabric(), mpi::Job::split_placement(tb.fabric(), 4));
  Outcome o;
  o.result = apps::run_nas(
      job, apps::make_ft({.cls = apps::NasClass::kS, .iterations = 1}));
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

Outcome ext_kv_small() {
  core::Testbed tb(core::TestbedOptions{.wan_delay = 1'000'000,
                                        .metrics = true,
                                        .par_sites = 2});
  const net::NodeId server = tb.node_a();
  const net::NodeId client = tb.node_b();
  ib::Hca server_hca(tb.fabric().node(server), {});
  ib::Hca client_hca(tb.fabric().node(client), {});
  rpc::RdmaRpcServer rpc_server(server_hca);
  rpc::RdmaRpcClient rpc_client(client_hca, rpc_server);
  kv::ReplicaServer replica(tb.sim_for(server), server);
  rpc_server.set_handler(replica.handler());
  for (std::uint64_t k = 0; k < 64; ++k) replica.preload(k, 4096);
  kv::ReplicatedKv coord(tb.sim_for(client), client, {&rpc_client},
                         kv::QuorumConfig{.read_quorum = 1,
                                          .write_quorum = 1});
  kv::LoadGen gen(tb.sim_for(client), coord,
                  {.mode = kv::ArrivalMode::kClosed,
                   .concurrency = 4,
                   .total_ops = 4 * 50,
                   .get_fraction = 0.9,
                   .key_space = 64,
                   .zipf_s = 0,
                   .value_bytes = 4096});
  gen.start();
  tb.engine().run();
  Outcome o;
  o.result = kv::make_slo_report(gen.stats()).goodput_kops;
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

Outcome lossy_tcp_small() {
  // i.i.d. WAN loss is a fault plan on named per-link RNG streams, so a
  // lossy run still partitions one LP per site.
  const net::FaultPlanConfig plan{.ge = {.loss_good = 0.01}};
  core::Testbed tb(core::TestbedOptions{.wan_delay = 100'000,
                                        .faults = &plan,
                                        .metrics = true,
                                        .par_sites = 2});
  core::tcpbench::StreamConfig cfg;
  cfg.tcp.sack = true;
  cfg.bytes_per_stream = 1u << 20;
  Outcome o;
  o.result = core::tcpbench::tcp_throughput(tb, cfg);
  EXPECT_GT(tb.fabric().wan_pair(0).wan_link_a_to_b().stats()
                .packets_dropped_fault,
            0u);
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

// Runs `scenario` once under the sequential oracle and once per
// parallel thread budget, asserting every observable is bitwise equal.
void expect_differential_identical(Outcome (*scenario)(), const char* name) {
  ::setenv("IBWAN_THREADS", "1", 1);  // oracle: collapses to one site
  const Outcome seq = scenario();
  EXPECT_EQ(seq.sites, 1) << name << ": oracle did not collapse";
  for (const char* threads : {"2", "4"}) {
    ::setenv("IBWAN_THREADS", threads, 1);
    const Outcome par = scenario();
    SCOPED_TRACE(std::string(name) + " IBWAN_THREADS=" + threads);
    EXPECT_EQ(par.sites, 2) << "scenario silently fell back to sequential";
    EXPECT_EQ(seq.result, par.result);  // bitwise, not near
    EXPECT_EQ(seq.events, par.events);
    EXPECT_EQ(seq.end, par.end);
    EXPECT_EQ(seq.metrics_json, par.metrics_json);
  }
  ::unsetenv("IBWAN_THREADS");
}

TEST(PdesDifferential, Fig5RcBandwidthByteIdentical) {
  expect_differential_identical(&fig5_small, "fig5_small");
}

TEST(PdesDifferential, Fig12NasFtByteIdentical) {
  expect_differential_identical(&fig12_small, "fig12_small");
}

TEST(PdesDifferential, ExtKvWorkloadByteIdentical) {
  expect_differential_identical(&ext_kv_small, "ext_kv_small");
}

TEST(PdesDifferential, LossyTcpByteIdentical) {
  expect_differential_identical(&lossy_tcp_small, "lossy_tcp_small");
}

}  // namespace
}  // namespace ibwan
