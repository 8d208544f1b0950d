#include "tcp/tcp.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "sim/simulator.hpp"

namespace ibwan::tcp {
namespace {

using namespace ibwan::sim::literals;

/// Two hosts across the WAN with IPoIB devices and TCP stacks.
struct TcpWorld {
  explicit TcpWorld(ipoib::IpoibConfig dev_cfg = {}, TcpConfig tcp_cfg = {},
                    net::FabricConfig fab_cfg = {.nodes_a = 1, .nodes_b = 1})
      : fabric(sim, fab_cfg),
        hca_a(fabric.node(0), {}),
        hca_b(fabric.node(1), {}),
        dev_a(hca_a, dev_cfg),
        dev_b(hca_b, dev_cfg),
        stack_a(dev_a, tcp_cfg),
        stack_b(dev_b, tcp_cfg) {
    ipoib::IpoibDevice::link(dev_a, dev_b);
  }

  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca hca_a, hca_b;
  ipoib::IpoibDevice dev_a, dev_b;
  TcpStack stack_a, stack_b;
};

TEST(Tcp, HandshakeEstablishesBothSides) {
  TcpWorld w;
  TcpConnection* server = nullptr;
  w.stack_b.listen(5001, [&](TcpConnection& c) { server = &c; });
  TcpConnection& client = w.stack_a.connect(1, 5001);
  bool established = false;
  client.set_on_established([&] { established = true; });
  w.sim.run();
  EXPECT_TRUE(established);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->established());
}

TEST(Tcp, TransfersExactByteCount) {
  TcpWorld w;
  std::uint64_t delivered = 0;
  w.stack_b.listen(5001, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
  });
  TcpConnection& client = w.stack_a.connect(1, 5001);
  client.send(1'000'000);
  w.sim.run();
  EXPECT_EQ(delivered, 1'000'000u);
  EXPECT_EQ(client.bytes_acked(), 1'000'000u);
}

TEST(Tcp, SendBeforeEstablishedIsBuffered) {
  TcpWorld w;
  std::uint64_t delivered = 0;
  w.stack_b.listen(5001, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
  });
  TcpConnection& client = w.stack_a.connect(1, 5001);
  client.send(50'000);  // queued during the handshake
  w.sim.run();
  EXPECT_EQ(delivered, 50'000u);
}

TEST(Tcp, MultipleSendsAccumulate) {
  TcpWorld w;
  std::uint64_t delivered = 0;
  w.stack_b.listen(5001, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
  });
  TcpConnection& client = w.stack_a.connect(1, 5001);
  for (int i = 0; i < 10; ++i) client.send(12'345);
  w.sim.run();
  EXPECT_EQ(delivered, 123'450u);
}

TEST(Tcp, BidirectionalTransfer) {
  TcpWorld w;
  std::uint64_t fwd = 0, rev = 0;
  TcpConnection* server = nullptr;
  w.stack_b.listen(5001, [&](TcpConnection& c) {
    server = &c;
    c.set_on_delivered([&](std::uint64_t n) { fwd += n; });
    c.send(200'000);
  });
  TcpConnection& client = w.stack_a.connect(1, 5001);
  client.set_on_delivered([&](std::uint64_t n) { rev += n; });
  client.send(300'000);
  w.sim.run();
  EXPECT_EQ(fwd, 300'000u);
  EXPECT_EQ(rev, 200'000u);
}

double measure_throughput(TcpWorld& w, std::uint64_t bytes) {
  w.stack_b.listen(5001, [&](TcpConnection&) {});
  TcpConnection& client = w.stack_a.connect(1, 5001);
  client.send(bytes);
  sim::Time done_at = 0;
  client.set_on_acked([&](std::uint64_t acked) {
    if (acked == bytes) done_at = w.sim.now();
  });
  w.sim.run();
  EXPECT_GT(done_at, 0u);
  return static_cast<double>(bytes) / sim::to_seconds(done_at) / 1e6;
}

TEST(Tcp, UdModeThroughputIsStackBound) {
  // IPoIB-UD single stream lands well below verbs bandwidth (Fig 6).
  TcpWorld w;
  const double mbps = measure_throughput(w, 64 << 20);
  EXPECT_GT(mbps, 250.0);
  EXPECT_LT(mbps, 550.0);
}

TEST(Tcp, ConnectedMode64kMtuIsMuchFaster) {
  ipoib::IpoibConfig dev;
  dev.mode = ipoib::Mode::kConnected;
  dev.mtu = ipoib::kConnectedIpMtu;
  TcpWorld w(dev);
  const double mbps = measure_throughput(w, 256 << 20);
  // Figure 7: ~890 MB/s with the 64 KB MTU.
  EXPECT_GT(mbps, 750.0);
  EXPECT_LT(mbps, 1000.0);
}

TEST(Tcp, SmallWindowCollapsesUnderWanDelay) {
  TcpConfig small;
  small.window_bytes = 64 << 10;
  TcpWorld w({}, small);
  w.fabric.set_wan_delay(1000_us);
  const double mbps = measure_throughput(w, 4 << 20);
  // 64 KB / ~2 ms RTT ~= 32 MB/s.
  EXPECT_LT(mbps, 40.0);
}

TEST(Tcp, LargerWindowsHelpUnderDelay) {
  auto run = [](std::uint32_t wnd) {
    TcpConfig cfg;
    cfg.window_bytes = wnd;
    TcpWorld w({}, cfg);
    w.fabric.set_wan_delay(1000_us);
    return measure_throughput(w, 16 << 20);
  };
  const double w64k = run(64 << 10);
  const double w512k = run(512 << 10);
  EXPECT_GT(w512k, 3.0 * w64k);
}

TEST(Tcp, RecoversFromWanLoss) {
  TcpWorld w;
  w.sim.seed(3);
  w.fabric.wan_pair(0).apply_faults({.ge = {.loss_good = 0.005}});
  std::uint64_t delivered = 0;
  w.stack_b.listen(5001, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
  });
  TcpConnection& client = w.stack_a.connect(1, 5001);
  client.send(8 << 20);
  w.sim.run();
  EXPECT_EQ(delivered, 8u << 20);
  EXPECT_EQ(client.bytes_acked(), 8u << 20);
  EXPECT_GT(w.fabric.wan_pair(0).wan_link_a_to_b().stats()
                .packets_dropped_fault,
            0u);
  EXPECT_GT(client.stats().retransmits + client.stats().fast_retransmits,
            0u);
}

TEST(Tcp, SlowStartRampsCwnd) {
  TcpWorld w;
  w.stack_b.listen(5001, [&](TcpConnection&) {});
  TcpConnection& client = w.stack_a.connect(1, 5001);
  const double cwnd0 = client.cwnd_bytes();
  client.send(4 << 20);
  w.sim.run();
  EXPECT_GT(client.cwnd_bytes(), cwnd0 * 4);
}

TEST(Tcp, TwoConnectionsShareOneDeviceFairly) {
  TcpWorld w;
  std::uint64_t d1 = 0, d2 = 0;
  w.stack_b.listen(5001, [&](TcpConnection& c) {
    static int n = 0;
    auto* target = (n++ == 0) ? &d1 : &d2;
    c.set_on_delivered([target](std::uint64_t x) { *target += x; });
  });
  w.stack_a.connect(1, 5001).send(4 << 20);
  w.stack_a.connect(1, 5001).send(4 << 20);
  w.sim.run();
  EXPECT_EQ(d1, 4u << 20);
  EXPECT_EQ(d2, 4u << 20);
}

TEST(Ipoib, DatagramModeRejectsOversizedPacket) {
  TcpWorld w;
  EXPECT_EQ(w.dev_a.config().mtu, ipoib::kUdIpMtu);
}

TEST(Ipoib, DeviceCountsTraffic) {
  TcpWorld w;
  w.stack_b.listen(5001, [&](TcpConnection&) {});
  w.stack_a.connect(1, 5001).send(100'000);
  w.sim.run();
  EXPECT_GT(w.dev_a.stats().ip_tx, 45u);  // ~50 data segments plus SYN
  EXPECT_GT(w.dev_b.stats().ip_rx, 45u);
}

}  // namespace
}  // namespace ibwan::tcp
