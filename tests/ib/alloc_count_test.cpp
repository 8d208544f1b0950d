// Heap allocations on the RC data path. The binary replaces the global
// operator new with a counting one (hence its own executable), warms a
// back-to-back pair up with one message, then counts what a second
// message costs end to end: post, segmentation, every hop, reassembly,
// ACKs and both completions. It must not grow with the packet count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "tests/ib/ib_test_util.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ibwan::ib {
namespace {

using ibwan::ib::testing::BackToBack;

constexpr std::uint64_t kMiB = 1 << 20;

/// Heap allocations made while one `length`-byte RC send runs to
/// completion on a pair that has already carried one such message.
std::uint64_t allocs_per_message(std::uint64_t length, HcaConfig cfg,
                                 net::Link::Config wire) {
  BackToBack f(cfg, wire);
  auto [qa, qb] = f.rc_pair();
  std::uint64_t done = 0;
  f.scq_a.set_callback([&](const Cqe&) { ++done; });
  f.rcq_b.set_callback([&](const Cqe&) { ++done; });
  const auto send_one = [&](std::uint64_t id) {
    qb->post_recv(RecvWr{.wr_id = id});
    qa->post_send(SendWr{.wr_id = id, .length = length});
    f.sim.run();
  };
  send_one(1);  // warm-up: queues, slabs and event lanes reach size
  const std::uint64_t before = g_allocs;
  send_one(2);
  const std::uint64_t used = g_allocs - before;
  EXPECT_EQ(done, 4u);  // both messages completed on both sides
  return used;
}

// A short wire and a receive engine at least as fast as the transmit
// engine, so no queue or event lane on the path holds more than a
// packet or two. (Queues that do fill link one block per ~10 entries
// and free it as they drain; the last test bounds that.)
HcaConfig paced_hca() {
  HcaConfig cfg;
  cfg.rx_pkt_overhead = cfg.pkt_overhead;
  return cfg;
}
constexpr net::Link::Config kFastWire{.bytes_per_ns = 1000.0,
                                      .propagation = 10};

TEST(RcAllocations, OneMiBMessageCostsConstantAllocations) {
  // 512 packets; the receiver acks every ack_interval_pkts (64), and an
  // ACK is a one-packet run with its own header: 1 run array + 8 ACK
  // headers + a few per-message entries.
  const std::uint64_t big = allocs_per_message(kMiB, paced_hca(), kFastWire);
  EXPECT_LT(big, 16u) << "allocations scale with packets";
}

TEST(RcAllocations, CostDoesNotGrowWithPacketCount) {
  // With one ACK per message, 2 packets and 512 cost the same: nothing
  // on the path allocates per packet.
  HcaConfig cfg = paced_hca();
  cfg.ack_interval_pkts = 1024;
  const std::uint64_t small = allocs_per_message(4096, cfg, kFastWire);
  const std::uint64_t big = allocs_per_message(kMiB, cfg, kFastWire);
  EXPECT_EQ(big, small);
}

TEST(RcAllocations, QueuedBurstCostsOneBlockPerTenPackets) {
  // At the default 1 B/ns the whole message queues at the uplink. The
  // queue links a block per 10 packets (48-byte Packets in ~512-byte
  // blocks) and frees it as it drains, so that is all a burst adds.
  const std::uint64_t big = allocs_per_message(kMiB, {}, {.bytes_per_ns = 1.0,
                                                           .propagation = 1000});
  EXPECT_LT(big, 16u + 512u / 10u);
}

}  // namespace
}  // namespace ibwan::ib
