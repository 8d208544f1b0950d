// Failure injection: RC must deliver every byte exactly once, in order,
// across a lossy WAN; UD loss must be visible to the application.
#include <gtest/gtest.h>

#include <vector>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "tests/ib/ib_test_util.hpp"

namespace ibwan::ib {
namespace {

using ibwan::ib::testing::TwoNodeFabric;
using namespace ibwan::sim::literals;

TEST(Reliability, RcRecoversSingleMessageFromLoss) {
  HcaConfig hca;
  hca.rto = 2_ms;
  TwoNodeFabric f(hca);
  f.set_wan_loss(0.02);
  auto [qa, qb] = f.rc_pair();
  qb->post_recv(RecvWr{});
  qa->post_send(SendWr{.length = 1 << 20});  // 512 packets, ~10 will drop
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, 1u << 20);
  EXPECT_GT(f.wan_drops(), 0u);
  EXPECT_GT(qa->stats().pkts_retransmitted, 0u);
}

TEST(Reliability, RcDeliversAllMessagesInOrderUnderLoss) {
  HcaConfig hca;
  hca.rto = 2_ms;
  TwoNodeFabric f(hca);
  f.sim.seed(1234);
  f.set_wan_loss(0.05);
  auto [qa, qb] = f.rc_pair();
  const int n = 200;
  std::vector<std::uint64_t> sizes;
  f.rcq_b.set_callback([&](const Cqe& e) { sizes.push_back(e.byte_len); });
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < n; ++i) {
    qa->post_send(SendWr{.length = static_cast<std::uint64_t>(1 + i * 37)});
  }
  f.sim.run();
  ASSERT_EQ(sizes.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(sizes[i], static_cast<std::uint64_t>(1 + i * 37));
  }
  EXPECT_GT(f.wan_drops(), 0u);
  EXPECT_GT(qb->stats().naks_sent + qa->stats().rto_fires, 0u);
}

TEST(Reliability, RcSenderCompletionsSurviveAckLoss) {
  // Loss hits acks too; duplicates must re-ack and all sends complete.
  HcaConfig hca;
  hca.rto = 1_ms;
  TwoNodeFabric f(hca);
  f.sim.seed(99);
  f.set_wan_loss(0.05);
  auto [qa, qb] = f.rc_pair();
  const int n = 100;
  int send_done = 0;
  f.scq_a.set_callback([&](const Cqe&) { ++send_done; });
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < n; ++i) qa->post_send(SendWr{.length = 3000});
  f.sim.run();
  EXPECT_GT(f.wan_drops(), 0u);
  EXPECT_EQ(send_done, n);
  EXPECT_EQ(qb->stats().msgs_received, static_cast<std::uint64_t>(n));
}

TEST(Reliability, RcRdmaReadSurvivesRequestLoss) {
  HcaConfig hca;
  hca.rto = 1_ms;
  TwoNodeFabric f(hca);
  f.sim.seed(7);
  f.set_wan_loss(0.10);
  auto [qa, qb] = f.rc_pair();
  (void)qb;
  int done = 0;
  f.scq_a.set_callback([&](const Cqe&) { ++done; });
  for (int i = 0; i < 10; ++i) {
    qa->post_send(SendWr{.wr_id = static_cast<std::uint64_t>(i),
                         .opcode = Opcode::kRdmaRead,
                         .length = 20000});
  }
  f.sim.run();
  EXPECT_GT(f.wan_drops(), 0u);
  EXPECT_EQ(done, 10);
}

TEST(Reliability, RetransmissionPreservesExactlyOnceDelivery) {
  // Count receiver messages: duplicates would surface as extra CQEs.
  HcaConfig hca;
  hca.rto = 500_us;  // aggressive timer to provoke spurious retransmits
  TwoNodeFabric f(hca);
  f.set_wan_loss(0.03);
  f.fabric.set_wan_delay(100_us);
  auto [qa, qb] = f.rc_pair();
  const int n = 50;
  int recv_done = 0;
  f.rcq_b.set_callback([&](const Cqe&) { ++recv_done; });
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < n; ++i) qa->post_send(SendWr{.length = 10000});
  f.sim.run();
  EXPECT_GT(f.wan_drops(), 0u);
  EXPECT_EQ(recv_done, n);
  EXPECT_EQ(qb->stats().msgs_received, static_cast<std::uint64_t>(n));
}

TEST(Reliability, UdLossIsSilentButCounted) {
  TwoNodeFabric f;
  f.sim.seed(5);
  f.set_wan_loss(0.2);
  auto [qa, qb] = f.ud_pair();
  const int n = 500;
  for (int i = 0; i < n; ++i) qb->post_recv(RecvWr{});
  for (int i = 0; i < n; ++i) {
    qa->post_send(SendWr{.length = 1024}, UdDest{f.hca_b.lid(), qb->qpn()});
  }
  f.sim.run();
  EXPECT_EQ(qa->stats().datagrams_sent, static_cast<std::uint64_t>(n));
  EXPECT_LT(qb->stats().datagrams_received, static_cast<std::uint64_t>(n));
  EXPECT_GT(qb->stats().datagrams_received, static_cast<std::uint64_t>(n) / 2);
}

TEST(Reliability, WanBufferOverflowTriggersRetransmitNotDataLoss) {
  net::FabricConfig fc{.nodes_a = 1, .nodes_b = 1};
  fc.longbow.buffer_bytes = 16 * 1024;  // tiny WAN buffer
  HcaConfig hca;
  hca.rto = 2_ms;
  TwoNodeFabric f(hca, fc);
  auto [qa, qb] = f.rc_pair();
  qb->post_recv(RecvWr{});
  qa->post_send(SendWr{.length = 256 * 1024});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, 256u * 1024);
}

}  // namespace
}  // namespace ibwan::ib
