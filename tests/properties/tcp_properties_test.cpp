// Property sweeps over TCP/IPoIB: byte conservation, the window/RTT
// throughput bound, and monotonicity in the window size.
#include <gtest/gtest.h>

#include <tuple>

#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::tcp {
namespace {

struct World {
  World(ipoib::IpoibConfig dev, TcpConfig cfg, sim::Duration delay)
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        hca_a(fabric.node(0), {}),
        hca_b(fabric.node(1), {}),
        dev_a(hca_a, dev),
        dev_b(hca_b, dev),
        stack_a(dev_a, cfg),
        stack_b(dev_b, cfg) {
    fabric.set_wan_delay(delay);
    ipoib::IpoibDevice::link(dev_a, dev_b);
  }
  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca hca_a, hca_b;
  ipoib::IpoibDevice dev_a, dev_b;
  TcpStack stack_a, stack_b;
};

struct TransferResult {
  std::uint64_t delivered = 0;
  std::uint64_t acked = 0;
  double seconds = 0;
};

TransferResult transfer(World& w, std::uint64_t bytes) {
  TransferResult result;
  w.stack_b.listen(7, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { result.delivered += n; });
  });
  TcpConnection& c = w.stack_a.connect(1, 7);
  c.send(bytes);
  w.sim.run();
  result.acked = c.bytes_acked();
  result.seconds = sim::to_seconds(w.sim.now());
  return result;
}

class TcpGridTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t /*window*/, sim::Duration /*delay*/>> {};

TEST_P(TcpGridTest, EveryByteDeliveredAndAcked) {
  const auto [window, delay] = GetParam();
  TcpConfig cfg;
  cfg.window_bytes = window;
  World w({}, cfg, delay);
  const std::uint64_t bytes = 2 << 20;
  const auto r = transfer(w, bytes);
  EXPECT_EQ(r.delivered, bytes);
  EXPECT_EQ(r.acked, bytes);
}

TEST_P(TcpGridTest, ThroughputBelowWindowOverRtt) {
  const auto [window, delay] = GetParam();
  if (delay == 0) GTEST_SKIP() << "bound is vacuous at zero delay";
  TcpConfig cfg;
  cfg.window_bytes = window;
  World w({}, cfg, delay);
  const std::uint64_t bytes = 2 << 20;
  const auto r = transfer(w, bytes);
  const double rtt = 2.0 * static_cast<double>(delay) / 1e9;
  const double bound = static_cast<double>(window) / rtt;
  EXPECT_LT(static_cast<double>(bytes) / r.seconds, bound * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    WindowDelayGrid, TcpGridTest,
    ::testing::Combine(
        ::testing::Values<std::uint32_t>(64 << 10, 256 << 10, 1 << 20),
        ::testing::Values<sim::Duration>(0, 100'000, 1'000'000,
                                         10'000'000)));

class TcpWindowMonotoneTest
    : public ::testing::TestWithParam<sim::Duration> {};

TEST_P(TcpWindowMonotoneTest, BiggerWindowNeverSlower) {
  const sim::Duration delay = GetParam();
  auto rate = [&](std::uint32_t window) {
    TcpConfig cfg;
    cfg.window_bytes = window;
    World w({}, cfg, delay);
    const std::uint64_t bytes = 4 << 20;
    const auto r = transfer(w, bytes);
    return static_cast<double>(bytes) / r.seconds;
  };
  // Near-monotone: second-order burst/delayed-ack dynamics can cost a
  // few percent, as on real stacks; a larger window must never lose big.
  const double small = rate(64 << 10);
  const double medium = rate(256 << 10);
  const double large = rate(1 << 20);
  EXPECT_GE(medium, small * 0.95);
  EXPECT_GE(large, medium * 0.95);
}

INSTANTIATE_TEST_SUITE_P(Delays, TcpWindowMonotoneTest,
                         ::testing::Values<sim::Duration>(0, 100'000,
                                                          1'000'000));

class TcpLossTest : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossTest, ConservationUnderLoss) {
  World w({}, {}, /*delay=*/50'000);
  w.sim.seed(99);
  w.fabric.wan_pair(0).apply_faults({.ge = {.loss_good = GetParam()}});
  const std::uint64_t bytes = 3 << 20;
  const auto r = transfer(w, bytes);
  EXPECT_EQ(r.delivered, bytes);
  EXPECT_EQ(r.acked, bytes);
}

INSTANTIATE_TEST_SUITE_P(LossGrid, TcpLossTest,
                         ::testing::Values(0.0005, 0.005, 0.02));

class TcpMtuTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TcpMtuTest, ConnectedModeConservesAtAnyMtu) {
  ipoib::IpoibConfig dev;
  dev.mode = ipoib::Mode::kConnected;
  dev.mtu = GetParam();
  World w(dev, {}, 100'000);
  const std::uint64_t bytes = 2 << 20;
  const auto r = transfer(w, bytes);
  EXPECT_EQ(r.delivered, bytes);
}

INSTANTIATE_TEST_SUITE_P(MtuGrid, TcpMtuTest,
                         ::testing::Values(2044u, 9000u, 16u << 10,
                                           ipoib::kConnectedIpMtu));

}  // namespace
}  // namespace ibwan::tcp
