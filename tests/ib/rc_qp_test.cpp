#include <gtest/gtest.h>

#include <vector>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "tests/ib/ib_test_util.hpp"

namespace ibwan::ib {
namespace {

using ibwan::ib::testing::TwoNodeFabric;
using namespace ibwan::sim::literals;

TEST(RcQp, SendDeliversRecvCompletion) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  qb->post_recv(RecvWr{.wr_id = 77, .max_length = 4096});
  qa->post_send(SendWr{.wr_id = 5, .length = 1024, .imm = 9});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->type, CqeType::kRecvComplete);
  EXPECT_EQ(cqe->wr_id, 77u);
  EXPECT_EQ(cqe->byte_len, 1024u);
  EXPECT_EQ(cqe->imm, 9u);
}

TEST(RcQp, SendCompletionArrivesAfterAck) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  f.fabric.set_wan_delay(100_us);
  qb->post_recv(RecvWr{.max_length = 4096});
  sim::Time send_done = 0;
  f.scq_a.set_callback([&](const Cqe& e) {
    EXPECT_EQ(e.type, CqeType::kSendComplete);
    send_done = f.sim.now();
  });
  qa->post_send(SendWr{.wr_id = 1, .length = 8});
  f.sim.run();
  // Completion requires the ack: at least a full RTT (200us) elapsed.
  EXPECT_GT(send_done, 200_us);
  EXPECT_LT(send_done, 300_us);
}

TEST(RcQp, LargeMessageIsSegmentedAndReassembled) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  const std::uint64_t len = 1 << 20;  // 512 packets at 2 KB MTU
  qb->post_recv(RecvWr{.wr_id = 1, .max_length = len});
  qa->post_send(SendWr{.wr_id = 2, .length = len});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, len);
  EXPECT_EQ(f.rcq_b.poll(), std::nullopt);  // exactly one completion
  EXPECT_EQ(qb->stats().msgs_received, 1u);
  EXPECT_EQ(qb->stats().bytes_received, len);
}

TEST(RcQp, ZeroLengthMessageCompletes) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  qb->post_recv(RecvWr{.wr_id = 3});
  qa->post_send(SendWr{.wr_id = 4, .length = 0});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, 0u);
  ASSERT_TRUE(f.scq_a.poll().has_value());
}

TEST(RcQp, MessagesCompleteInPostingOrder) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  std::vector<std::uint64_t> recv_order;
  f.rcq_b.set_callback([&](const Cqe& e) { recv_order.push_back(e.byte_len); });
  std::vector<std::uint64_t> send_order;
  f.scq_a.set_callback([&](const Cqe& e) { send_order.push_back(e.wr_id); });
  for (int i = 0; i < 40; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < 40; ++i) {
    qa->post_send(SendWr{.wr_id = static_cast<std::uint64_t>(i),
                         .length = static_cast<std::uint64_t>(100 + i)});
  }
  f.sim.run();
  ASSERT_EQ(recv_order.size(), 40u);
  ASSERT_EQ(send_order.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(recv_order[i], static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(send_order[i], static_cast<std::uint64_t>(i));
  }
}

TEST(RcQp, SendArrivingBeforeRecvIsHeldNotLost) {
  // Our RC model buffers early sends rather than RNR-NAKing (DESIGN.md).
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  qa->post_send(SendWr{.wr_id = 1, .length = 256});
  f.sim.run();
  EXPECT_EQ(f.rcq_b.poll(), std::nullopt);
  qb->post_recv(RecvWr{.wr_id = 9});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 9u);
  EXPECT_EQ(cqe->byte_len, 256u);
}

TEST(RcQp, InflightWindowBoundsThroughputAtHighDelay) {
  // The paper's key RC observation: with W messages of size S in flight,
  // throughput <= W*S/RTT; medium messages cannot fill a long pipe.
  HcaConfig cfg;
  cfg.rc_max_inflight_msgs = 4;
  TwoNodeFabric f(cfg);
  f.fabric.set_wan_delay(1000_us);
  auto [qa, qb] = f.rc_pair();
  const int iters = 40;
  const std::uint64_t size = 8192;
  for (int i = 0; i < iters; ++i) qb->post_recv(RecvWr{});
  int completed = 0;
  sim::Time t_end = 0;
  f.scq_a.set_callback([&](const Cqe&) {
    if (++completed == iters) t_end = f.sim.now();
  });
  for (int i = 0; i < iters; ++i) {
    qa->post_send(SendWr{.length = size});
  }
  f.sim.run();
  const double secs = sim::to_seconds(t_end);
  const double mbps = static_cast<double>(iters) * size / secs / 1e6;
  // Window bound: 4 msgs * 8 KB / ~2 ms RTT ~= 16 MB/s.
  EXPECT_LT(mbps, 18.0);
  EXPECT_GT(mbps, 10.0);
}

TEST(RcQp, LargerWindowRaisesWanThroughput) {
  auto measure = [](int window) {
    HcaConfig cfg;
    cfg.rc_max_inflight_msgs = window;
    TwoNodeFabric f(cfg);
    f.fabric.set_wan_delay(1000_us);
    auto [qa, qb] = f.rc_pair();
    const int iters = 64;
    for (int i = 0; i < iters; ++i) qb->post_recv(RecvWr{});
    int completed = 0;
    sim::Time t_end = 0;
    f.scq_a.set_callback([&](const Cqe&) {
      if (++completed == iters) t_end = f.sim.now();
    });
    for (int i = 0; i < iters; ++i) qa->post_send(SendWr{.length = 16384});
    f.sim.run();
    return static_cast<double>(iters) * 16384 / sim::to_seconds(t_end);
  };
  EXPECT_GT(measure(16), 3.0 * measure(2));
}

TEST(RcQp, StatsCountTraffic) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  for (int i = 0; i < 3; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < 3; ++i) qa->post_send(SendWr{.length = 5000});
  f.sim.run();
  EXPECT_EQ(qa->stats().msgs_sent, 3u);
  EXPECT_EQ(qa->stats().bytes_sent, 15000u);
  EXPECT_EQ(qb->stats().msgs_received, 3u);
  EXPECT_EQ(qb->stats().bytes_received, 15000u);
  EXPECT_EQ(qa->stats().pkts_retransmitted, 0u);
  EXPECT_GT(qb->stats().acks_sent, 0u);
}

TEST(RcQp, AckIntervalKeepsLargeTransferAcked) {
  HcaConfig cfg;
  cfg.ack_interval_pkts = 8;
  TwoNodeFabric f(cfg);
  auto [qa, qb] = f.rc_pair();
  qb->post_recv(RecvWr{});
  qa->post_send(SendWr{.length = 64 * 1024});  // 32 packets
  f.sim.run();
  // 32 packets / 8 per ack = 4 interval acks (the last packet ack
  // coincides with an interval boundary).
  EXPECT_GE(qb->stats().acks_sent, 4u);
  ASSERT_TRUE(f.scq_a.poll().has_value());
}

TEST(RcQp, TrafficAcrossWanUsesLongbows) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  qb->post_recv(RecvWr{});
  qa->post_send(SendWr{.length = 10000});
  f.sim.run();
  EXPECT_GT(f.fabric.longbows()->wan_stats_a_to_b().packets_sent, 4u);
  // Acks flow back.
  EXPECT_GT(f.fabric.longbows()->wan_stats_b_to_a().packets_sent, 0u);
}

TEST(Hca, UnknownQpnCountsUnroutable) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  qa->connect(f.hca_b.lid(), 999);  // bogus remote QPN
  qa->post_send(SendWr{.length = 64});
  f.sim.run_for(1_ms);
  EXPECT_GT(f.hca_b.stats().pkts_unroutable, 0u);
}

}  // namespace
}  // namespace ibwan::ib
