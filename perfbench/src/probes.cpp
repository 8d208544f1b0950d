#include "probes.hpp"

#include <cstdint>
#include <functional>
#include <memory>

#include "core/tcp_bench.hpp"
#include "core/testbed.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "net/wan.hpp"
#include "rpc/rpc.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ibwan;

namespace {

constexpr int kRepeats = 5;

/// Median over kRepeats of (host ns of one `body` call) / ops it did.
double median_ns_per_op(const std::function<std::uint64_t()>& body) {
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t ops = body();
    const double ns = seconds_since(t0) * 1e9;
    samples.push_back(ops > 0 ? ns / static_cast<double>(ops) : 0.0);
  }
  return median(std::move(samples));
}

net::Packet probe_packet(net::NodeId dst) {
  net::Packet p;
  p.dst = dst;
  p.wire_size = 2048;
  return p;
}

/// Simulator::schedule + fire, delays spread so the heap is exercised.
std::uint64_t probe_sim(int n) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < n; ++i) {
    sim.schedule(static_cast<sim::Duration>(i % 97), [&fired] { ++fired; });
  }
  sim.run();
  return fired;
}

/// net::Link::send through serialization and propagation to the sink.
std::uint64_t probe_link(int n) {
  sim::Simulator sim;
  net::Link link(sim, {.bytes_per_ns = 1.0, .propagation = 100}, "probe");
  std::uint64_t delivered = 0;
  link.set_sink([&delivered](net::Packet&&) { ++delivered; });
  for (int i = 0; i < n; ++i) link.send(probe_packet(1));
  sim.run();
  return delivered;
}

/// One switch hop: route lookup, hop latency, and the egress link.
std::uint64_t probe_switch(int n) {
  sim::Simulator sim;
  net::Switch sw(sim, "probe-sw", 200);
  net::Link out(sim, {.bytes_per_ns = 2.0, .propagation = 100}, "probe-out");
  std::uint64_t delivered = 0;
  out.set_sink([&delivered](net::Packet&&) { ++delivered; });
  sw.set_route(7, sw.add_port(&out));
  for (int i = 0; i < n; ++i) sw.receive(probe_packet(7));
  sim.run();
  return delivered;
}

/// A Longbow pair crossing: router, long-haul link, router, LAN egress.
std::uint64_t probe_longbow(int n) {
  sim::Simulator sim;
  net::LongbowPair pair(sim, net::LongbowPair::Config{});
  net::Link lan(sim, {.bytes_per_ns = 2.0, .propagation = 100}, "probe-lan");
  std::uint64_t delivered = 0;
  lan.set_sink([&delivered](net::Packet&&) { ++delivered; });
  pair.side_b().set_lan_tx(&lan);
  for (int i = 0; i < n; ++i) pair.side_a().receive_from_lan(probe_packet(1));
  sim.run();
  return delivered;
}

/// ib::RcQp::post_send of `bytes`-sized messages across the default
/// two-site fabric, `n` messages posted back to back.
std::uint64_t probe_rc(int n, std::uint64_t bytes) {
  sim::Simulator sim;
  net::Fabric fabric(sim, {.nodes_a = 1, .nodes_b = 1});
  ib::Hca ha(fabric.node(0), {});
  ib::Hca hb(fabric.node(1), {});
  ib::Cq scq(sim), rcq(sim), scq2(sim), rcq2(sim);
  ib::RcQp& qa = ha.create_rc_qp(scq, rcq);
  ib::RcQp& qb = hb.create_rc_qp(scq2, rcq2);
  qa.connect(hb.lid(), qb.qpn());
  qb.connect(ha.lid(), qa.qpn());
  std::uint64_t received = 0;
  rcq2.set_callback([&received](const ib::Cqe&) { ++received; });
  for (int i = 0; i < n; ++i) {
    qb.post_recv(ib::RecvWr{.max_length = bytes});
    qa.post_send(ib::SendWr{.wr_id = static_cast<std::uint64_t>(i),
                            .length = bytes});
  }
  sim.run();
  return received;
}

/// TCP over IPoIB on a clean two-site testbed: host ns per segment sent.
std::uint64_t probe_tcp(std::uint64_t bytes) {
  core::Testbed tb(core::TestbedOptions{
      .nodes_a = 1, .nodes_b = 1, .metrics = true, .par_sites = 1});
  core::tcpbench::tcp_throughput(tb,
                                 {.streams = 1, .bytes_per_stream = bytes});
  return counter_sum(tb.metrics_snapshot(), "/tcp/segs_sent");
}

/// SdrEndpoint RS(16,4) on a clean two-site testbed: ns per chunk sent.
std::uint64_t probe_sdr(int msgs) {
  core::Testbed tb(core::TestbedOptions{
      .nodes_a = 1, .nodes_b = 1, .par_sites = 1});
  ib::Hca ha(tb.fabric().node(tb.node_a()), {});
  ib::Hca hb(tb.fabric().node(tb.node_b()), {});
  sdr::SdrConfig cfg;
  cfg.scheme = sdr::Scheme::kRs;
  cfg.parity_per_group = 4;
  sdr::SdrEndpoint src(ha, cfg);
  sdr::SdrEndpoint dst(hb, cfg);
  for (int i = 0; i < msgs; ++i) src.send(dst.dest(), 1ull << 20);
  tb.run();
  return src.stats().data_chunks_sent + src.stats().parity_chunks_sent;
}

sim::Task rpc_caller(rpc::RdmaRpcClient& client, int n, std::uint64_t& done) {
  for (int i = 0; i < n; ++i) {
    co_await client.call(rpc::CallArgs{.proc = 1, .arg_bytes = 64});
    ++done;
  }
}

/// Sequential RdmaRpcClient calls with a small inline reply.
std::uint64_t probe_rpc(int n) {
  core::Testbed tb(core::TestbedOptions{
      .nodes_a = 1, .nodes_b = 1, .par_sites = 1});
  ib::Hca ha(tb.fabric().node(tb.node_a()), {});
  ib::Hca hb(tb.fabric().node(tb.node_b()), {});
  rpc::RdmaRpcServer server(hb);
  server.set_handler([](const rpc::CallArgs&) -> sim::Coro<rpc::ReplyInfo> {
    co_return rpc::ReplyInfo{.reply_bytes = 64};
  });
  rpc::RdmaRpcClient client(ha, server);
  std::uint64_t done = 0;
  rpc_caller(client, n, done);
  tb.run();
  return done;
}

}  // namespace

std::vector<std::pair<std::string, double>> run_probes(bool reduced) {
  const int s = reduced ? 16 : 1;  // work divisor
  ScopedSpan span("bench.probes", -1);
  return {
      {"sim.ns_per_event",
       median_ns_per_op([s] { return probe_sim(200'000 / s); })},
      {"net.link.ns_per_pkt",
       median_ns_per_op([s] { return probe_link(50'000 / s); })},
      {"net.switch.ns_per_pkt",
       median_ns_per_op([s] { return probe_switch(50'000 / s); })},
      {"net.wan.ns_per_pkt",
       median_ns_per_op([s] { return probe_longbow(50'000 / s); })},
      {"ib.rc.ns_per_msg_2k",
       median_ns_per_op([s] { return probe_rc(4'000 / s, 2048); })},
      {"ib.rc.ns_per_msg_64k",
       median_ns_per_op([s] { return probe_rc(400 / s, 65536); })},
      {"tcp.ns_per_seg",
       median_ns_per_op([s] { return probe_tcp((8ull << 20) / s); })},
      {"sdr.ns_per_chunk",
       median_ns_per_op([s] { return probe_sdr(16 / s); })},
      {"rpc.rdma.ns_per_call",
       median_ns_per_op([s] { return probe_rpc(2'000 / s); })},
  };
}

}  // namespace perfbench
