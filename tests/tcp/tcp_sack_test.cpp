// Selective acknowledgment: conservation, marker exactly-once, and the
// recovery advantage over go-back-N on a lossy WAN.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::tcp {
namespace {

using namespace ibwan::sim::literals;

struct SackWorld {
  SackWorld(bool sack, double loss, sim::Duration delay,
            std::uint64_t seed = 3)
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        hca_a(fabric.node(0), {}),
        hca_b(fabric.node(1), {}),
        dev_a(hca_a, {}),
        dev_b(hca_b, {}),
        stack_a(dev_a, make_tcp(sack)),
        stack_b(dev_b, make_tcp(sack)) {
    sim.seed(seed);
    fabric.set_wan_delay(delay);
    fabric.wan_pair(0).apply_faults({.ge = {.loss_good = loss}});
    ipoib::IpoibDevice::link(dev_a, dev_b);
  }
  static TcpConfig make_tcp(bool sack) {
    TcpConfig cfg;
    cfg.sack = sack;
    return cfg;
  }
  /// Packets the WAN loss model dropped, both directions.
  std::uint64_t wan_drops() {
    net::LongbowPair& wan = fabric.wan_pair(0);
    return wan.wan_link_a_to_b().stats().packets_dropped_fault +
           wan.wan_link_b_to_a().stats().packets_dropped_fault;
  }
  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca hca_a, hca_b;
  ipoib::IpoibDevice dev_a, dev_b;
  TcpStack stack_a, stack_b;
};

struct Outcome {
  std::uint64_t delivered = 0;
  double seconds = 0;
  TcpConnection::Stats stats;
};

Outcome transfer(SackWorld& w, std::uint64_t bytes) {
  Outcome out;
  w.stack_b.listen(7, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { out.delivered += n; });
  });
  TcpConnection& c = w.stack_a.connect(1, 7);
  c.send(bytes);
  sim::Time done = 0;
  c.set_on_acked([&](std::uint64_t acked) {
    if (acked == bytes) done = w.sim.now();
  });
  w.sim.run();
  out.seconds = sim::to_seconds(done);
  out.stats = c.stats();
  return out;
}

TEST(TcpSack, ConservationUnderHeavyLoss) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SackWorld w(true, 0.02, 100_us, seed);
    const auto out = transfer(w, 8 << 20);
    EXPECT_GT(w.wan_drops(), 0u) << seed;
    EXPECT_EQ(out.delivered, 8u << 20) << seed;
  }
}

TEST(TcpSack, MarkersExactlyOnceUnderLoss) {
  SackWorld w(true, 0.02, 100_us);
  std::vector<int> got;
  w.stack_b.listen(7, [&](TcpConnection& c) {
    c.set_on_marker([&](std::shared_ptr<const void> m) {
      got.push_back(*static_cast<const int*>(m.get()));
    });
  });
  TcpConnection& c = w.stack_a.connect(1, 7);
  for (int i = 0; i < 80; ++i) {
    c.send_marked(10'000, std::make_shared<int>(i));
  }
  w.sim.run();
  EXPECT_GT(w.wan_drops(), 0u);
  ASSERT_EQ(got.size(), 80u);
  for (int i = 0; i < 80; ++i) EXPECT_EQ(got[i], i);
}

TEST(TcpSack, BeatsGoBackNOnLossyWan) {
  // Average a few seeds: with holes-only retransmission the goodput
  // should clearly exceed go-back-N at the same loss rate.
  double t_sack = 0, t_gbn = 0;
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    SackWorld ws(true, 0.01, 1000_us, seed);
    t_sack += transfer(ws, 8 << 20).seconds;
    SackWorld wg(false, 0.01, 1000_us, seed);
    t_gbn += transfer(wg, 8 << 20).seconds;
  }
  EXPECT_LT(t_sack, t_gbn * 0.9);
}

TEST(TcpSack, NoLossBehavesLikeBaseline) {
  SackWorld ws(true, 0, 0);
  const auto s = transfer(ws, 16 << 20);
  SackWorld wb(false, 0, 0);
  const auto b = transfer(wb, 16 << 20);
  EXPECT_NEAR(s.seconds, b.seconds, b.seconds * 0.02);
  EXPECT_EQ(s.stats.retransmits, 0u);
}

TEST(TcpSack, OutOfOrderBufferMergesRanges) {
  // Drop-induced holes at high bandwidth produce many disjoint ranges;
  // all must drain with no duplicate delivery.
  SackWorld w(true, 0.05, 100_us, 9);
  const auto out = transfer(w, 4 << 20);
  EXPECT_GT(w.wan_drops(), 0u);
  EXPECT_EQ(out.delivered, 4u << 20);  // exactly once
}

}  // namespace
}  // namespace ibwan::tcp
