// Replicated KV quorum coordinator: config validation, quorum
// completion, read repair, monotone apply, and the failure edge cases —
// a replica down mid-quorum must not block completion, and all replicas
// unreachable must resolve to a clean timeout/abort instead of a hang.
// At N=1, R=W=1 it is a single-server KV store: get/put, the WAN round
// trip, and closed-loop LoadGen runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ib/hca.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "net/fabric.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibwan {
namespace {

using namespace ibwan::sim::literals;

/// A handler that accepts the call and never replies — an application
///-level "replica down" that works identically on every transport. The
/// suspended handler frame is intentionally leaked (repo convention for
/// drained-but-suspended coroutines).
rpc::Handler black_hole(sim::Simulator& sim) {
  return [&sim](const rpc::CallArgs&) -> sim::Coro<rpc::ReplyInfo> {
    sim::Trigger never(sim);
    co_await never.wait();
    co_return rpc::ReplyInfo{};
  };
}

/// Client on node 0 in site A; `n` RC-transport replicas on nodes 1..n,
/// all in site B, so every replica call crosses the WAN.
struct World {
  explicit World(kv::QuorumConfig qc, sim::Duration delay = 0, int n = 3)
      : fabric(sim, {.nodes_a = 1, .nodes_b = n}),
        client_hca(fabric.node(0), {}) {
    fabric.set_wan_delay(delay);
    std::vector<rpc::RpcClient*> channels;
    for (int i = 0; i < n; ++i) {
      const net::NodeId node = static_cast<net::NodeId>(i + 1);
      hcas.push_back(std::make_unique<ib::Hca>(fabric.node(node),
                                               ib::HcaConfig{}));
      servers.push_back(std::make_unique<rpc::RdmaRpcServer>(*hcas.back()));
      replicas.push_back(std::make_unique<kv::ReplicaServer>(sim, node));
      servers.back()->set_handler(replicas.back()->handler());
      clients.push_back(std::make_unique<rpc::RdmaRpcClient>(
          client_hca, *servers.back()));
      channels.push_back(clients.back().get());
    }
    coord = std::make_unique<kv::ReplicatedKv>(sim, 0, std::move(channels),
                                               qc);
  }

  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca client_hca;
  std::vector<std::unique_ptr<ib::Hca>> hcas;
  std::vector<std::unique_ptr<rpc::RdmaRpcServer>> servers;
  std::vector<std::unique_ptr<kv::ReplicaServer>> replicas;
  std::vector<std::unique_ptr<rpc::RdmaRpcClient>> clients;
  std::unique_ptr<kv::ReplicatedKv> coord;
};

/// One replica, read and write quorums of one: a single-server store.
constexpr kv::QuorumConfig kSingle{.read_quorum = 1, .write_quorum = 1};

TEST(QuorumConfig, ValidateRejectsUnsafeAndMalformedConfigs) {
  kv::QuorumConfig qc;  // defaults: R=2, W=2
  EXPECT_EQ(kv::validate(qc, 3), "");
  // R + W == N forfeits quorum intersection.
  EXPECT_NE(kv::validate(qc, 4), "");
  qc.read_quorum = 0;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc.read_quorum = 4;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc = {};
  qc.op_timeout = 0;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc = {};
  qc.backoff = 0.5;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc = {};
  qc.max_retries = -1;
  EXPECT_NE(kv::validate(qc, 3), "");
  EXPECT_NE(kv::validate({}, 0), "");
}

TEST(ReplicatedKv, WriteThenReadReturnsWrittenVersion) {
  World w({});
  kv::OpResult put{}, get{};
  [](World& ww, kv::OpResult* p, kv::OpResult* g) -> sim::Task {
    *p = co_await ww.coord->put(7, 4096);
    *g = co_await ww.coord->get(7);
  }(w, &put, &get);
  w.sim.run();
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.version, put.version);
  EXPECT_EQ(get.value_bytes, 4096u);
  EXPECT_EQ(w.coord->stats().ops_completed, 2u);
  // The write eventually lands on every replica, not just the quorum.
  for (const auto& r : w.replicas) {
    EXPECT_EQ(r->version_of(7), put.version);
  }
}

TEST(ReplicatedKv, ReadRepairPushesNewestVersionToStaleReplica) {
  kv::QuorumConfig qc;
  qc.read_quorum = 3;  // all responders visible -> repair is deterministic
  qc.write_quorum = 1;
  World w(qc);
  const kv::Version newest{500, 1};
  w.replicas[0]->preload(3, 2048, newest);
  w.replicas[1]->preload(3, 2048, newest);
  w.replicas[2]->preload(3, 1024, kv::Version{100, 1});  // stale
  kv::OpResult get{};
  [](World& ww, kv::OpResult* g) -> sim::Task {
    *g = co_await ww.coord->get(3);
  }(w, &get);
  w.sim.run();
  EXPECT_EQ(get.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.version, newest);
  EXPECT_EQ(get.value_bytes, 2048u);
  EXPECT_EQ(w.coord->stats().read_repairs, 1u);
  // The asynchronous repair write brought the stale replica current.
  EXPECT_EQ(w.replicas[2]->version_of(3), newest);
  EXPECT_EQ(w.replicas[2]->value_size(3), 2048u);
}

TEST(ReplicatedKv, StaleWriteIsRejectedByMonotoneApply) {
  World w({});
  const kv::Version stored{1'000'000'000, 9};  // far newer than sim time
  for (auto& r : w.replicas) r->preload(4, 8192, stored);
  kv::OpResult put{};
  [](World& ww, kv::OpResult* p) -> sim::Task {
    *p = co_await ww.coord->put(4, 16);
  }(w, &put);
  w.sim.run();
  // The op completes (acks arrived) but no replica rolled back.
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  for (const auto& r : w.replicas) {
    EXPECT_EQ(r->version_of(4), stored);
    EXPECT_EQ(r->value_size(4), 8192u);
    EXPECT_EQ(r->stats().writes_stale, 1u);
    EXPECT_EQ(r->stats().writes_applied, 0u);
  }
}

TEST(ReplicatedKv, ConcurrentSameInstantPutsGetDistinctVersions) {
  World w({});
  kv::OpResult a{}, b{};
  [](World& ww, kv::OpResult* out) -> sim::Task {
    *out = co_await ww.coord->put(1, 111);
  }(w, &a);
  [](World& ww, kv::OpResult* out) -> sim::Task {
    *out = co_await ww.coord->put(1, 222);
  }(w, &b);
  w.sim.run();
  EXPECT_EQ(a.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(b.status, kv::OpStatus::kCompleted);
  EXPECT_NE(a.version, b.version);
  // Replicas converge on the larger version.
  const kv::Version winner = std::max(a.version, b.version);
  for (const auto& r : w.replicas) EXPECT_EQ(r->version_of(1), winner);
}

TEST(ReplicatedKv, ReplicaDownMidQuorumStillCompletes) {
  World w({});
  w.servers[2]->set_handler(black_hole(w.sim));  // replica 2 goes dark
  kv::OpResult put{}, get{};
  [](World& ww, kv::OpResult* p, kv::OpResult* g) -> sim::Task {
    *p = co_await ww.coord->put(8, 512);
    *g = co_await ww.coord->get(8);
  }(w, &put, &get);
  w.sim.run();
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.version, put.version);
  EXPECT_EQ(w.coord->stats().ops_completed, 2u);
  EXPECT_EQ(w.replicas[2]->stats().requests, 0u);
  // The dark replica's calls stay suspended: conservation is one-sided.
  EXPECT_LE(w.coord->stats().replica_acks + w.coord->stats().replica_fails +
                w.coord->stats().replica_late,
            w.coord->stats().replica_calls);
}

TEST(ReplicatedKv, AllReplicasUnreachableResolvesCleanlyNotHang) {
  kv::QuorumConfig qc;
  qc.op_timeout = 5 * sim::kMillisecond;
  qc.max_retries = 2;
  World w(qc);
  for (auto& s : w.servers) s->set_handler(black_hole(w.sim));
  kv::OpResult get{};
  [](World& ww, kv::OpResult* g) -> sim::Task {
    *g = co_await ww.coord->get(1);
  }(w, &get);
  w.sim.run();  // must drain — a hang would spin this forever
  EXPECT_EQ(get.status, kv::OpStatus::kTimedOut);
  EXPECT_EQ(get.attempts, 3);
  EXPECT_EQ(w.coord->stats().ops_issued, 1u);
  EXPECT_EQ(w.coord->stats().ops_timed_out, 1u);
  EXPECT_EQ(w.coord->stats().retries, 2u);
  // Ladder: 5 + 10 + 20 ms of attempt deadlines.
  EXPECT_GE(w.sim.now(), 35 * sim::kMillisecond);
}

TEST(ReplicatedKv, SingleReplicaGetReturnsSizeAndMissReturnsZero) {
  World w(kSingle, 0, 1);
  w.replicas[0]->preload(5, 4096);
  kv::OpResult hit{}, miss{};
  [](World& ww, kv::OpResult* h, kv::OpResult* m) -> sim::Task {
    *h = co_await ww.coord->get(5);
    *m = co_await ww.coord->get(6);
  }(w, &hit, &miss);
  w.sim.run();
  EXPECT_EQ(hit.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(hit.value_bytes, 4096u);
  EXPECT_EQ(miss.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(miss.value_bytes, 0u);
  EXPECT_EQ(w.replicas[0]->stats().reads_served, 2u);
  EXPECT_EQ(w.replicas[0]->stats().read_misses, 1u);
}

TEST(ReplicatedKv, SingleReplicaPutStoresValue) {
  World w(kSingle, 0, 1);
  kv::OpResult put{};
  [](World& ww, kv::OpResult* p) -> sim::Task {
    *p = co_await ww.coord->put(9, 100'000);
  }(w, &put);
  w.sim.run();
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(w.replicas[0]->value_size(9), 100'000u);
  EXPECT_EQ(w.replicas[0]->version_of(9), put.version);
  EXPECT_EQ(w.replicas[0]->stats().writes_applied, 1u);
}

TEST(ReplicatedKv, SingleReplicaGetLatencyTracksWanDelay) {
  auto latency_us = [](sim::Duration delay) {
    World w(kSingle, delay, 1);
    w.replicas[0]->preload(1, 128);
    sim::Time t0 = 0, t1 = 0;
    [](World& ww, sim::Time* a, sim::Time* b) -> sim::Task {
      *a = ww.sim.now();
      co_await ww.coord->get(1);
      *b = ww.sim.now();
    }(w, &t0, &t1);
    w.sim.run();
    return sim::to_microseconds(t1 - t0);
  };
  const double lan = latency_us(0);
  const double wan = latency_us(1000_us);
  EXPECT_GT(wan, 2000.0);  // one RPC round trip
  EXPECT_LT(wan, 2100.0);
  EXPECT_LT(lan, 100.0);
}

/// Closed-loop run of `concurrency` workers, `ops_each` ops apiece,
/// against one replica at `delay` one-way.
kv::LoadStats closed_loop(sim::Duration delay, int concurrency,
                          std::uint64_t ops_each) {
  World w(kSingle, delay, 1);
  for (std::uint64_t k = 0; k < 64; ++k) w.replicas[0]->preload(k, 1024);
  kv::LoadGen gen(w.sim, *w.coord,
                  {.mode = kv::ArrivalMode::kClosed,
                   .concurrency = concurrency,
                   .total_ops = ops_each * concurrency,
                   .key_space = 64,
                   .zipf_s = 0,
                   .value_bytes = 1024});
  gen.start();
  w.sim.run();
  EXPECT_TRUE(gen.done());
  return gen.stats();
}

TEST(ReplicatedKv, ClosedLoopLoadGenResolvesEveryOp) {
  const kv::LoadStats st = closed_loop(100_us, 4, 50);
  EXPECT_EQ(st.issued, 200u);
  EXPECT_EQ(st.completed, 200u);
  EXPECT_EQ(st.timed_out + st.aborted, 0u);
  EXPECT_GT(st.latency_us.mean(), 200.0);  // at least the RTT
}

TEST(ReplicatedKv, ClosedLoopConcurrencyRaisesGoodputUnderDelay) {
  const auto kops = [](int concurrency) {
    return kv::make_slo_report(closed_loop(1000_us, concurrency, 40))
        .goodput_kops;
  };
  EXPECT_GT(kops(8), 4.0 * kops(1));
}

}  // namespace
}  // namespace ibwan
