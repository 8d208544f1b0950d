// Chaos soak: end-to-end workloads under a faulted WAN.
//
// Invariants, per ISSUE/ROADMAP hardening goals:
//   - every byte a WAN link accepts is delivered or attributed to a
//     drop bucket (no silent loss);
//   - workloads either complete or fail with an explicit error
//     (flushed CQEs / ok=false replies) — they never hang;
//   - the simulator drains to idle after the workload: no orphaned
//     timers or stuck retransmission loops.
//
// Runs two fixed seeds plus an optional extra seed from
// IBWAN_CHAOS_SEED (echoed, for reproducing CI shake-out failures).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <vector>

#include "core/nfs_bench.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/wan.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"

namespace ibwan {
namespace {

using namespace ibwan::sim::literals;

std::vector<std::uint64_t> soak_seeds() {
  std::vector<std::uint64_t> seeds{42, 1337};
  if (const char* env = std::getenv("IBWAN_CHAOS_SEED")) {
    const std::uint64_t s = std::strtoull(env, nullptr, 10);
    std::printf("[chaos] extra seed from IBWAN_CHAOS_SEED: %llu\n",
                static_cast<unsigned long long>(s));
    seeds.push_back(s);
  }
  return seeds;
}

void expect_conserved(const net::Link::Stats& s, const char* which) {
  EXPECT_EQ(s.bytes_sent, s.bytes_delivered + s.bytes_dropped) << which;
  EXPECT_EQ(s.packets_sent, s.packets_delivered + s.packets_dropped_fault +
                                s.packets_dropped_down)
      << which;
}

net::FaultPlanConfig chaos_plan() {
  net::FaultPlanConfig cfg;
  cfg.ge = {.p_good_to_bad = 0.002,
            .p_bad_to_good = 0.1,
            .loss_good = 0.0001,
            .loss_bad = 0.2};
  cfg.jitter_max = 5'000;  // 5 us
  cfg.flaps.push_back({.down_at = 20'000'000, .down_for = 5'000'000});
  cfg.brownouts.push_back(
      {.at = 50'000'000, .duration = 20'000'000, .buffer_bytes = 64 << 10});
  return cfg;
}

// ---------------------------------------------------------------------------
// TCP survives bursty loss, a mid-transfer flap, jitter and a brownout
// ---------------------------------------------------------------------------

TEST(ChaosSoak, TcpTransferSurvivesFaultedWan) {
  for (std::uint64_t seed : soak_seeds()) {
    sim::Simulator sim;
    sim.seed(seed);
    net::Fabric fabric(sim, {.nodes_a = 1, .nodes_b = 1});
    ib::Hca hca_a(fabric.node(0), {});
    ib::Hca hca_b(fabric.node(1), {});
    ipoib::IpoibDevice dev_a(hca_a, {}), dev_b(hca_b, {});
    tcp::TcpConfig tcfg;
    tcfg.sack = (seed % 2) == 0;  // soak both recovery paths
    tcp::TcpStack stack_a(dev_a, tcfg), stack_b(dev_b, tcfg);
    fabric.set_wan_delay(100_us);
    ipoib::IpoibDevice::link(dev_a, dev_b);
    fabric.longbows()->apply_faults(chaos_plan());

    const std::uint64_t bytes = 16ull << 20;
    std::uint64_t delivered = 0;
    stack_b.listen(7, [&](tcp::TcpConnection& c) {
      c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
    });
    tcp::TcpConnection& c = stack_a.connect(1, 7);
    c.send(bytes);

    // A generous deadline: events past it mean a stuck recovery loop.
    const bool more = sim.run_until(600ull * 1'000'000'000);
    EXPECT_FALSE(more) << "seed " << seed << ": simulator did not drain";
    EXPECT_EQ(delivered, bytes) << "seed " << seed;
    expect_conserved(fabric.longbows()->wan_link_a_to_b().stats(), "a2b");
    expect_conserved(fabric.longbows()->wan_link_b_to_a().stats(), "b2a");
    EXPECT_GT(fabric.longbows()->wan_link_a_to_b().stats().flaps, 0u);
  }
}

// ---------------------------------------------------------------------------
// RC verbs: bursty loss is recovered; a severed WAN flushes, not hangs
// ---------------------------------------------------------------------------

TEST(ChaosSoak, RcTransferSurvivesBurstyLoss) {
  for (std::uint64_t seed : soak_seeds()) {
    sim::Simulator sim;
    sim.seed(seed);
    net::Fabric fabric(sim, {.nodes_a = 1, .nodes_b = 1});
    ib::Hca hca_a(fabric.node(0), {});
    ib::Hca hca_b(fabric.node(1), {});
    ib::Cq scq_a(sim), rcq_a(sim), scq_b(sim), rcq_b(sim);
    fabric.set_wan_delay(100_us);
    net::FaultPlanConfig cfg;
    cfg.ge = {.p_good_to_bad = 0.001,
              .p_bad_to_good = 0.2,
              .loss_good = 0.0,
              .loss_bad = 0.1};
    fabric.longbows()->apply_faults(cfg);

    ib::RcQp& qa = hca_a.create_rc_qp(scq_a, rcq_a);
    ib::RcQp& qb = hca_b.create_rc_qp(scq_b, rcq_b);
    qa.connect(hca_b.lid(), qb.qpn());
    qb.connect(hca_a.lid(), qa.qpn());

    const int msgs = 64;
    int completions = 0, failures = 0;
    scq_a.set_callback([&](const ib::Cqe& e) {
      e.success ? ++completions : ++failures;
    });
    for (int i = 0; i < msgs; ++i) qb.post_recv(ib::RecvWr{});
    for (int i = 0; i < msgs; ++i) {
      qa.post_send(ib::SendWr{.wr_id = static_cast<std::uint64_t>(i),
                              .length = 256 << 10});
    }
    const bool more = sim.run_until(600ull * 1'000'000'000);
    EXPECT_FALSE(more) << "seed " << seed;
    // Loss bursts end (p_bad_to_good = 0.2): everything is recoverable,
    // so nothing may be flushed and every message must land.
    EXPECT_EQ(completions, msgs) << "seed " << seed;
    EXPECT_EQ(failures, 0) << "seed " << seed;
    EXPECT_EQ(qb.stats().msgs_received, static_cast<std::uint64_t>(msgs));
    expect_conserved(fabric.longbows()->wan_link_a_to_b().stats(), "a2b");
  }
}

TEST(ChaosSoak, SeveredWanFlushesEveryWqeInsteadOfHanging) {
  sim::Simulator sim;
  sim.seed(42);
  net::Fabric fabric(sim, {.nodes_a = 1, .nodes_b = 1});
  ib::Hca hca_a(fabric.node(0), {});
  ib::Hca hca_b(fabric.node(1), {});
  ib::Cq scq_a(sim), rcq_a(sim), scq_b(sim), rcq_b(sim);

  ib::RcQp& qa = hca_a.create_rc_qp(scq_a, rcq_a);
  ib::RcQp& qb = hca_b.create_rc_qp(scq_b, rcq_b);
  qa.connect(hca_b.lid(), qb.qpn());
  qb.connect(hca_a.lid(), qa.qpn());

  // Cut both WAN directions permanently mid-transfer.
  sim.schedule_at(1'000'000, [&] {
    fabric.longbows()->wan_link_a_to_b().set_down(true);
    fabric.longbows()->wan_link_b_to_a().set_down(true);
  });

  const int msgs = 32;
  int ok = 0, flushed = 0;
  scq_a.set_callback([&](const ib::Cqe& e) {
    e.success ? ++ok : ++flushed;
  });
  for (int i = 0; i < msgs; ++i) qb.post_recv(ib::RecvWr{});
  for (int i = 0; i < msgs; ++i) {
    qa.post_send(ib::SendWr{.wr_id = static_cast<std::uint64_t>(i),
                            .length = 1 << 20});
  }
  // Retry exhaustion takes rc_retry_count RTO fires (~1.6 s simulated);
  // the queue must then drain — a pre-fix sender retransmitted forever.
  const bool more = sim.run_until(3600ull * 1'000'000'000);
  EXPECT_FALSE(more) << "simulator did not drain after QP error";
  EXPECT_TRUE(qa.in_error());
  EXPECT_EQ(ok + flushed, msgs) << "every posted WQE must complete";
  EXPECT_GT(flushed, 0);
  EXPECT_GT(qa.stats().retries_exhausted, 0u);
  EXPECT_EQ(qa.stats().flushed_wqes, static_cast<std::uint64_t>(flushed));

  // Posting on an errored QP completes immediately with success=false.
  qa.post_send(ib::SendWr{.wr_id = 999, .length = 64});
  sim.run();
  EXPECT_EQ(ok + flushed, msgs + 1);
}

// ---------------------------------------------------------------------------
// NFS over the global fault plan (exercises Testbed/bench wiring)
// ---------------------------------------------------------------------------

TEST(ChaosSoak, NfsIozoneCompletesUnderGlobalFaultPlan) {
  net::set_global_fault_plan(chaos_plan());
  core::nfsbench::NfsBenchConfig cfg;
  cfg.transport = core::nfsbench::Transport::kIpoibRc;
  cfg.wan_delay = 100_us;
  cfg.threads = 2;
  cfg.file_bytes = 8ull << 20;
  cfg.record_bytes = 256 << 10;
  const nfs::IozoneResult r = core::nfsbench::run(cfg);
  net::clear_global_fault_plan();
  EXPECT_EQ(r.bytes, cfg.file_bytes);
  EXPECT_GT(r.mbytes_per_sec, 0.0);
}

// ---------------------------------------------------------------------------
// Chaos determinism: the same seed reproduces the same faulted run
// ---------------------------------------------------------------------------

TEST(ChaosSoak, SameSeedReproducesFaultedTcpRun) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim.seed(seed);
    net::Fabric fabric(sim, {.nodes_a = 1, .nodes_b = 1});
    ib::Hca hca_a(fabric.node(0), {});
    ib::Hca hca_b(fabric.node(1), {});
    ipoib::IpoibDevice dev_a(hca_a, {}), dev_b(hca_b, {});
    tcp::TcpStack stack_a(dev_a, {}), stack_b(dev_b, {});
    fabric.set_wan_delay(100_us);
    ipoib::IpoibDevice::link(dev_a, dev_b);
    fabric.longbows()->apply_faults(chaos_plan());
    std::uint64_t delivered = 0;
    stack_b.listen(7, [&](tcp::TcpConnection& c) {
      c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
    });
    tcp::TcpConnection& c = stack_a.connect(1, 7);
    c.send(4 << 20);
    sim.run();
    return std::pair<std::uint64_t, sim::Time>{
        fabric.longbows()->wan_link_a_to_b().stats().packets_dropped_fault,
        sim.now()};
  };
  for (std::uint64_t seed : soak_seeds()) {
    EXPECT_EQ(run(seed), run(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ibwan
