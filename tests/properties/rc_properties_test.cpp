// Property sweeps over the RC transport: conservation (every byte
// delivered exactly once, in order) and the analytic throughput bound
// (rate <= window * size / RTT, capped by the wire) across the
// delay x size grid, with and without loss.
#include <gtest/gtest.h>

#include <tuple>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "tests/ib/ib_test_util.hpp"

namespace ibwan::ib {
namespace {

using ibwan::ib::testing::TwoNodeFabric;

// --------------------------------------------------------------------------
// Delay x message-size sweep.
// --------------------------------------------------------------------------

class RcGridTest : public ::testing::TestWithParam<
                       std::tuple<sim::Duration, std::uint64_t>> {};

TEST_P(RcGridTest, AllBytesDeliveredInOrder) {
  const auto [delay, size] = GetParam();
  TwoNodeFabric f;
  f.fabric.set_wan_delay(delay);
  auto [qa, qb] = f.rc_pair();
  const int n = 10;
  int order_errors = 0;
  std::uint64_t expected_imm = 0;
  f.rcq_b.set_callback([&](const Cqe& e) {
    if (e.imm != expected_imm++) ++order_errors;
  });
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < n; ++i) {
    qa->post_send(SendWr{.length = size,
                         .imm = static_cast<std::uint32_t>(i)});
  }
  f.sim.run();
  EXPECT_EQ(order_errors, 0);
  EXPECT_EQ(qb->stats().msgs_received, static_cast<std::uint64_t>(n));
  EXPECT_EQ(qb->stats().bytes_received, size * n);
  EXPECT_EQ(qa->stats().pkts_retransmitted, 0u);  // lossless fabric
}

TEST_P(RcGridTest, ThroughputRespectsWindowBound) {
  const auto [delay, size] = GetParam();
  HcaConfig cfg;
  TwoNodeFabric f(cfg);
  f.fabric.set_wan_delay(delay);
  auto [qa, qb] = f.rc_pair();
  const int n = 32;
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  int done = 0;
  sim::Time t_end = 0;
  f.scq_a.set_callback([&](const Cqe&) {
    if (++done == n) t_end = f.sim.now();
  });
  for (int i = 0; i < n; ++i) qa->post_send(SendWr{.length = size});
  f.sim.run();
  const double rate =
      static_cast<double>(size) * n / sim::to_seconds(t_end);  // B/s

  // Wire ceiling: SDR payload rate net of per-packet headers.
  const double wire = 1e9 * 2048.0 / (2048.0 + kRcHeaderBytes);
  EXPECT_LT(rate, wire * 1.02);

  // Window bound: W messages per round trip (generous fabric overhead
  // allowance; bound is only meaningful when delay dominates).
  if (delay > 0) {
    const double rtt = 2.0 * static_cast<double>(delay) / 1e9;
    const double window_bound =
        cfg.rc_max_inflight_msgs * static_cast<double>(size) / rtt;
    EXPECT_LT(rate, window_bound * 1.10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DelaySizeGrid, RcGridTest,
    ::testing::Combine(
        ::testing::Values<sim::Duration>(0, 10'000, 100'000, 1'000'000),
        ::testing::Values<std::uint64_t>(512, 8192, 65536, 1 << 20)));

// --------------------------------------------------------------------------
// Loss-rate sweep: reliability must hold at any injected loss level.
// --------------------------------------------------------------------------

class RcLossTest : public ::testing::TestWithParam<double> {};

TEST_P(RcLossTest, ExactlyOnceDeliveryUnderLoss) {
  const double loss = GetParam();
  HcaConfig hca;
  hca.rto = 2 * sim::kMillisecond;
  TwoNodeFabric f(hca);
  f.sim.seed(static_cast<std::uint64_t>(loss * 1e6) + 17);
  f.set_wan_loss(loss);
  auto [qa, qb] = f.rc_pair();
  const int n = 60;
  int recv_count = 0;
  f.rcq_b.set_callback([&](const Cqe&) { ++recv_count; });
  int send_count = 0;
  f.scq_a.set_callback([&](const Cqe&) { ++send_count; });
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < n; ++i) {
    qa->post_send(SendWr{.length = 5000 + 100 * static_cast<std::uint64_t>(i)});
  }
  f.sim.run();
  EXPECT_EQ(recv_count, n) << "loss=" << loss;
  EXPECT_EQ(send_count, n) << "loss=" << loss;
  EXPECT_EQ(qb->stats().msgs_received, static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(LossGrid, RcLossTest,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05, 0.15));

// --------------------------------------------------------------------------
// UD delay invariance across sizes.
// --------------------------------------------------------------------------

class UdInvarianceTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UdInvarianceTest, BandwidthIndependentOfDelay) {
  const std::uint32_t size = GetParam();
  auto measure = [&](sim::Duration delay) {
    TwoNodeFabric f;
    f.fabric.set_wan_delay(delay);
    auto [qa, qb] = f.ud_pair();
    const int iters = 300;
    for (int i = 0; i < iters; ++i) qb->post_recv(RecvWr{});
    sim::Time first = 0, last = 0;
    int got = 0;
    f.rcq_b.set_callback([&](const Cqe&) {
      if (got == 0) first = f.sim.now();
      if (++got == iters) last = f.sim.now();
    });
    for (int i = 0; i < iters; ++i) {
      qa->post_send(SendWr{.length = size},
                    UdDest{f.hca_b.lid(), qb->qpn()});
    }
    f.sim.run();
    return static_cast<double>(iters - 1) * size /
           sim::to_seconds(last - first);
  };
  const double r0 = measure(0);
  const double r10ms = measure(10'000'000);
  EXPECT_NEAR(r0, r10ms, r0 * 0.02) << size;
}

INSTANTIATE_TEST_SUITE_P(SizeGrid, UdInvarianceTest,
                         ::testing::Values(64u, 512u, 1024u, 2048u));

}  // namespace
}  // namespace ibwan::ib
