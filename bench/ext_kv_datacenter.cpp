// Extension: an RDMA key-value service across the WAN — the
// "data-centers" future-work context from the paper's conclusions.
// Closed-loop GET-heavy workload on one replica (N=1, R=W=1) behind
// RPC/RDMA; latency tracks the round trip, and the paper's
// parallel-streams lesson reappears as client concurrency.
#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "ib/hca.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "rpc/rpc.hpp"

using namespace ibwan;

namespace {

kv::SloReport run_kv(sim::Duration delay, int clients,
                     std::uint64_t value_bytes, std::uint64_t ops_per_client) {
  core::Testbed tb(1, delay);
  const net::NodeId server = tb.node_a();
  const net::NodeId client = tb.node_b();
  ib::Hca server_hca(tb.fabric().node(server), {});
  ib::Hca client_hca(tb.fabric().node(client), {});
  rpc::RdmaRpcServer rpc_server(server_hca);
  rpc::RdmaRpcClient rpc_client(client_hca, rpc_server);
  kv::ReplicaServer replica(tb.sim_for(server), server);
  rpc_server.set_handler(replica.handler());
  for (std::uint64_t k = 0; k < 256; ++k) replica.preload(k, value_bytes);
  // A 64 KB value at 10 ms one-way takes ~13 round trips through the
  // RC window (260 ms worst case); the default 50 ms deadline would
  // retry healthy ops, so the deadline sits well above the slowest.
  kv::ReplicatedKv coord(tb.sim_for(client), client, {&rpc_client},
                         kv::QuorumConfig{.read_quorum = 1,
                                          .write_quorum = 1,
                                          .op_timeout = sim::kSecond});
  kv::LoadGen gen(tb.sim_for(client), coord,
                  {.mode = kv::ArrivalMode::kClosed,
                   .concurrency = clients,
                   .total_ops = clients * ops_per_client,
                   .get_fraction = 0.9,
                   .key_space = 256,
                   .zipf_s = 0,
                   .value_bytes = value_bytes});
  gen.start();
  tb.engine().run();

  // Oracle audit: on a clean fabric every op completes (so none timed
  // out or aborted) on its first attempt; a retry means a stalled
  // transport.
  const kv::LoadStats& st = gen.stats();
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    const std::string ctx = "ext_kv " + std::to_string(clients) +
                            "-clients " + std::to_string(value_bytes) +
                            "B " + bench::delay_label(delay);
    report.expect_eq_u64("kv-clean-accounting", ctx + " completed",
                         st.completed, st.issued);
    report.expect_eq_u64("kv-clean-accounting", ctx + " retries",
                         coord.stats().retries, 0);
  }
  return kv::make_slo_report(st);
}

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Extension: RDMA key-value service over IB WAN "
      "(90% GET, 4 KB values)");

  const std::uint64_t ops = 50 * bench::scale();

  core::Table lat("mean operation latency (us), 4 clients", "delay_us");
  core::Table thr("throughput (K ops/s) by client count", "delay_us");
  for (sim::Duration delay : bench::delay_grid()) {
    const double x = static_cast<double>(delay) / 1000.0;
    for (std::uint64_t vb : {128ull, 4096ull, 65536ull}) {
      const auto r = run_kv(delay, 4, vb, ops);
      lat.add(std::to_string(vb) + "B-values", x, r.mean_us);
    }
    for (int clients : {1, 4, 16}) {
      const auto r = run_kv(delay, clients, 4096, ops);
      thr.add(std::to_string(clients) + "-clients", x, r.goodput_kops);
    }
  }
  bench::finish(lat, "ext_kv_latency");
  bench::finish(thr, "ext_kv_throughput");

  // Oracle audit: a closed-loop KV operation crosses the WAN twice
  // (request + response), so mean latency can't beat two one-way
  // propagation floors; once the RTT dominates, 16 concurrent clients
  // must out-run one.
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    const net::FabricConfig fc = core::fabric_defaults(1, 1);
    for (sim::Duration delay : bench::delay_grid()) {
      const double x = static_cast<double>(delay) / 1000.0;
      const double floor = 2.0 * check::oneway_floor_us(fc, delay);
      for (const auto& s : lat.all_series()) {
        report.expect_ge("latency-floor",
                         "ext_kv_latency " + s.name + " " +
                             bench::delay_label(delay),
                         s.at(x), floor);
      }
      if (delay >= sim::kMillisecond) {
        const double one = thr.series("1-clients").at(x);
        const double many = thr.series("16-clients").at(x);
        report.expect_true("concurrency-scales",
                           "ext_kv_throughput " + bench::delay_label(delay),
                           many > one,
                           "16-clients=" + std::to_string(many) +
                               " 1-clients=" + std::to_string(one));
      }
    }
  }
  return bench::selfcheck_exit();
}
