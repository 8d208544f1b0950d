// RDMA atomics (fetch-add / compare-swap) and shared receive queues.
#include <gtest/gtest.h>

#include <vector>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "tests/ib/ib_test_util.hpp"

namespace ibwan::ib {
namespace {

using ibwan::ib::testing::TwoNodeFabric;
using namespace ibwan::sim::literals;

TEST(Atomics, FetchAddReturnsOldAndAdds) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  (void)qb;
  f.hca_b.memory_word(0x100) = 41;
  std::vector<std::uint64_t> olds;
  f.scq_a.set_callback([&](const Cqe& e) {
    ASSERT_EQ(e.type, CqeType::kAtomicComplete);
    olds.push_back(e.atomic_old);
  });
  qa->post_send(SendWr{.wr_id = 1,
                       .opcode = Opcode::kFetchAdd,
                       .remote_addr = 0x100,
                       .atomic_operand = 1});
  qa->post_send(SendWr{.wr_id = 2,
                       .opcode = Opcode::kFetchAdd,
                       .remote_addr = 0x100,
                       .atomic_operand = 10});
  f.sim.run();
  ASSERT_EQ(olds.size(), 2u);
  EXPECT_EQ(olds[0], 41u);
  EXPECT_EQ(olds[1], 42u);
  EXPECT_EQ(f.hca_b.memory_word(0x100), 52u);
}

TEST(Atomics, CompareSwapOnlySwapsOnMatch) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  (void)qb;
  f.hca_b.memory_word(0x200) = 7;
  std::vector<std::uint64_t> olds;
  f.scq_a.set_callback([&](const Cqe& e) { olds.push_back(e.atomic_old); });
  // Matching compare: swaps.
  qa->post_send(SendWr{.wr_id = 1,
                       .opcode = Opcode::kCompareSwap,
                       .remote_addr = 0x200,
                       .atomic_operand = 99,
                       .atomic_compare = 7});
  // Stale compare: fails, returns current value.
  qa->post_send(SendWr{.wr_id = 2,
                       .opcode = Opcode::kCompareSwap,
                       .remote_addr = 0x200,
                       .atomic_operand = 123,
                       .atomic_compare = 7});
  f.sim.run();
  ASSERT_EQ(olds.size(), 2u);
  EXPECT_EQ(olds[0], 7u);
  EXPECT_EQ(olds[1], 99u);
  EXPECT_EQ(f.hca_b.memory_word(0x200), 99u);
}

TEST(Atomics, ConcurrentAddersNeverLoseUpdates) {
  // Two requesters hammer one counter; the final value must be exact —
  // the distributed-lock use case from the group's data-center work.
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  const int n = 50;
  int done = 0;
  f.scq_a.set_callback([&](const Cqe&) { ++done; });
  f.scq_b.set_callback([&](const Cqe&) { ++done; });
  for (int i = 0; i < n; ++i) {
    qa->post_send(SendWr{.wr_id = static_cast<std::uint64_t>(i),
                         .opcode = Opcode::kFetchAdd,
                         .remote_addr = 0x300,
                         .atomic_operand = 1});
    qb->post_send(SendWr{.wr_id = static_cast<std::uint64_t>(1000 + i),
                         .opcode = Opcode::kFetchAdd,
                         .remote_addr = 0x300,
                         .atomic_operand = 1});
  }
  f.sim.run();
  EXPECT_EQ(done, 2 * n);
  // qa targets hca_b's word, qb targets hca_a's word.
  EXPECT_EQ(f.hca_b.memory_word(0x300), static_cast<std::uint64_t>(n));
  EXPECT_EQ(f.hca_a.memory_word(0x300), static_cast<std::uint64_t>(n));
}

TEST(Atomics, SurviveWanLoss) {
  HcaConfig hca;
  hca.rto = 2_ms;
  TwoNodeFabric f(hca);
  f.sim.seed(31);
  f.set_wan_loss(0.05);
  auto [qa, qb] = f.rc_pair();
  (void)qb;
  int done = 0;
  f.scq_a.set_callback([&](const Cqe&) { ++done; });
  for (int i = 0; i < 30; ++i) {
    qa->post_send(SendWr{.wr_id = static_cast<std::uint64_t>(i),
                         .opcode = Opcode::kFetchAdd,
                         .remote_addr = 0x400,
                         .atomic_operand = 1});
  }
  f.sim.run();
  EXPECT_GT(f.wan_drops(), 0u);
  EXPECT_EQ(done, 30);
  EXPECT_EQ(f.hca_b.memory_word(0x400), 30u);  // exactly once each
}

TEST(Atomics, LatencyIsOneRoundTrip) {
  TwoNodeFabric f;
  f.fabric.set_wan_delay(500_us);
  auto [qa, qb] = f.rc_pair();
  (void)qb;
  sim::Time done = 0;
  f.scq_a.set_callback([&](const Cqe&) { done = f.sim.now(); });
  qa->post_send(SendWr{.opcode = Opcode::kFetchAdd, .remote_addr = 0});
  f.sim.run();
  EXPECT_GT(done, 1000_us);
  EXPECT_LT(done, 1100_us);
}

TEST(Srq, SharedPoolServesMultipleQps) {
  TwoNodeFabric f;
  // Two QP pairs into node B, both B-side QPs on one SRQ.
  RcQp& qa1 = f.hca_a.create_rc_qp(f.scq_a, f.rcq_a);
  RcQp& qa2 = f.hca_a.create_rc_qp(f.scq_a, f.rcq_a);
  RcQp& qb1 = f.hca_b.create_rc_qp(f.scq_b, f.rcq_b);
  RcQp& qb2 = f.hca_b.create_rc_qp(f.scq_b, f.rcq_b);
  qa1.connect(f.hca_b.lid(), qb1.qpn());
  qb1.connect(f.hca_a.lid(), qa1.qpn());
  qa2.connect(f.hca_b.lid(), qb2.qpn());
  qb2.connect(f.hca_a.lid(), qa2.qpn());
  Srq srq;
  qb1.set_srq(&srq);
  qb2.set_srq(&srq);
  for (int i = 0; i < 8; ++i) srq.post_recv(RecvWr{.wr_id = 500 + static_cast<std::uint64_t>(i)});

  int got = 0;
  f.rcq_b.set_callback([&](const Cqe& e) {
    EXPECT_GE(e.wr_id, 500u);
    ++got;
  });
  for (int i = 0; i < 4; ++i) {
    qa1.post_send(SendWr{.length = 128});
    qa2.post_send(SendWr{.length = 256});
  }
  f.sim.run();
  EXPECT_EQ(got, 8);
  EXPECT_EQ(srq.depth(), 0u);
}

TEST(Srq, RefillUnblocksStashedMessages) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  Srq srq;
  qb->set_srq(&srq);
  qa->post_send(SendWr{.length = 64});
  f.sim.run();
  EXPECT_EQ(f.rcq_b.poll(), std::nullopt);  // no buffers yet
  srq.post_recv(RecvWr{.wr_id = 9});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 9u);
}

TEST(Srq, QpOwnQueueHasPriority) {
  TwoNodeFabric f;
  auto [qa, qb] = f.rc_pair();
  Srq srq;
  qb->set_srq(&srq);
  srq.post_recv(RecvWr{.wr_id = 111});
  qb->post_recv(RecvWr{.wr_id = 222});
  qa->post_send(SendWr{.length = 64});
  f.sim.run();
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 222u);  // own queue consumed first
  EXPECT_EQ(srq.depth(), 1u);
}

}  // namespace
}  // namespace ibwan::ib
