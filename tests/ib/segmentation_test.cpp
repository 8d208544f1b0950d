// HCA-side segmentation: an RC message goes to the transmit engine as one
// run of headers and is cut into packets there. Every packet that leaves
// the uplink must equal what building each packet separately gives
// (the per-packet reference below), whatever happens to the run while
// it waits in the HCA queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "tests/ib/ib_test_util.hpp"

namespace ibwan::ib {
namespace {

using ibwan::ib::testing::BackToBack;
using ibwan::ib::testing::SentPacket;

constexpr std::uint64_t kMiB = 1 << 20;

/// A message as the reference segments it: packets start_psn.. of
/// `length` bytes, the app payload on the last one.
struct RefMsg {
  std::uint64_t start_psn = 0;
  std::uint64_t length = 0;
  std::shared_ptr<const void> app;
};

std::uint64_t ref_packets(std::uint64_t length, std::uint32_t mtu) {
  return length == 0 ? 1 : (length + mtu - 1) / mtu;
}

/// Checks one sent data packet against the per-packet reference.
void expect_ref(const SentPacket& s, const RefMsg& m, std::uint32_t mtu) {
  const IbPacket& h = s.hdr;
  ASSERT_EQ(h.type, IbPacketType::kData);
  ASSERT_GE(h.psn, m.start_psn);
  const std::uint64_t i = h.psn - m.start_psn;
  const std::uint64_t n = ref_packets(m.length, mtu);
  ASSERT_LT(i, n);
  const std::uint64_t offset = i * mtu;
  const std::uint64_t payload = std::min<std::uint64_t>(mtu, m.length - offset);
  EXPECT_EQ(h.offset, offset) << "psn " << h.psn;
  EXPECT_EQ(h.payload_bytes, payload) << "psn " << h.psn;
  EXPECT_EQ(h.first, i == 0) << "psn " << h.psn;
  EXPECT_EQ(h.last, i == n - 1) << "psn " << h.psn;
  EXPECT_EQ(h.total_length, m.length);
  EXPECT_EQ(s.wire_size, payload + kRcHeaderBytes) << "psn " << h.psn;
  EXPECT_FALSE(s.control);
  if (i == n - 1) {
    EXPECT_EQ(h.app_payload, m.app) << "psn " << h.psn;
  } else {
    EXPECT_EQ(h.app_payload, nullptr) << "psn " << h.psn;
  }
}

std::vector<SentPacket> data_only(const std::vector<SentPacket>& sent) {
  std::vector<SentPacket> out;
  for (const SentPacket& s : sent) {
    if (s.hdr.type == IbPacketType::kData) out.push_back(s);
  }
  return out;
}

/// A distinct app payload to follow through segmentation.
std::shared_ptr<const void> app_token(int v) { return std::make_shared<int>(v); }

TEST(HcaSegmentation, RunsMatchPerPacketReference) {
  BackToBack f;
  auto [qa, qb] = f.rc_pair();
  const std::uint32_t mtu = f.hca_a.config().mtu;
  const std::vector<std::uint64_t> sizes = {0, 1, mtu, kMiB};
  std::vector<RefMsg> ref;
  std::uint64_t psn = 0;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    ref.push_back(RefMsg{psn, sizes[k], app_token(static_cast<int>(k))});
    psn += ref_packets(sizes[k], mtu);
    qb->post_recv(RecvWr{.wr_id = k});
    qa->post_send(SendWr{.wr_id = k, .length = sizes[k],
                         .app_payload = ref.back().app});
  }
  f.sim.run();

  const std::vector<SentPacket> data = data_only(f.sent_ab);
  ASSERT_EQ(data.size(), psn);  // 1 + 1 + 1 + 512
  std::size_t msg = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].hdr.psn, i);
    while (data[i].hdr.psn >= ref[msg].start_psn +
                                  ref_packets(ref[msg].length, mtu)) {
      ++msg;
    }
    EXPECT_EQ(data[i].hdr.msg_seq, msg);
    expect_ref(data[i], ref[msg], mtu);
  }
  EXPECT_EQ(f.hca_a.stats().pkts_tx, f.sent_ab.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    auto cqe = f.rcq_b.poll();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->byte_len, sizes[k]);
    EXPECT_EQ(cqe->app_payload, ref[k].app);
  }
}

TEST(HcaSegmentation, NakRetransmitsARunFromMidMessage) {
  BackToBack f;
  auto [qa, qb] = f.rc_pair();
  const std::uint32_t mtu = f.hca_a.config().mtu;
  bool dropped = false;
  f.drop_ab = [&](const IbPacket& h) {
    if (dropped || h.psn != 5) return false;
    dropped = true;
    return true;
  };
  const RefMsg m{0, 16 * mtu, app_token(1)};
  qb->post_recv(RecvWr{.wr_id = 1});
  qa->post_send(SendWr{.wr_id = 1, .length = m.length, .app_payload = m.app});
  f.sim.run();

  // 0..15 as posted (5 lost), then the go-back-N run 5..15.
  const std::vector<SentPacket> data = data_only(f.sent_ab);
  std::vector<std::uint64_t> want;
  for (std::uint64_t p = 0; p < 16; ++p) want.push_back(p);
  for (std::uint64_t p = 5; p < 16; ++p) want.push_back(p);
  ASSERT_EQ(data.size(), want.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].hdr.psn, want[i]);
    expect_ref(data[i], m, mtu);
  }
  EXPECT_EQ(qa->stats().pkts_retransmitted, 11u);
  EXPECT_EQ(qb->stats().naks_sent, 1u);
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, m.length);
  EXPECT_EQ(cqe->app_payload, m.app);
  ASSERT_TRUE(f.scq_a.poll().has_value());
}

TEST(HcaSegmentation, AckOvertakesQueuedDataRun) {
  // A fast wire makes the HCA's per-packet cost the bottleneck, so the
  // 512-packet run is still in the HCA queue when the ACK is generated.
  BackToBack f({}, {.bytes_per_ns = 1000.0, .propagation = 1000});
  auto [qa, qb] = f.rc_pair();
  const std::uint32_t mtu = f.hca_a.config().mtu;
  const RefMsg m{0, kMiB, app_token(1)};
  qb->post_recv(RecvWr{.wr_id = 1});
  qa->post_recv(RecvWr{.wr_id = 2});
  qa->post_send(SendWr{.wr_id = 1, .length = m.length, .app_payload = m.app});
  qb->post_send(SendWr{.wr_id = 2, .length = 1});  // A acks this one
  f.sim.run();

  std::size_t ack_at = f.sent_ab.size();
  for (std::size_t i = 0; i < f.sent_ab.size(); ++i) {
    if (f.sent_ab[i].hdr.type == IbPacketType::kAck) {
      ack_at = i;
      break;
    }
  }
  ASSERT_LT(ack_at, f.sent_ab.size());
  const SentPacket& ack = f.sent_ab[ack_at];
  EXPECT_TRUE(ack.control);
  EXPECT_EQ(ack.wire_size, kAckBytes);
  EXPECT_EQ(ack.hdr.ack_psn, 1u);
  // The ACK went out between two packets of the same run...
  EXPECT_GT(ack_at, 0u);
  EXPECT_LT(ack_at, 512u);
  // ...and the run around it is unchanged.
  const std::vector<SentPacket> data = data_only(f.sent_ab);
  ASSERT_EQ(data.size(), 512u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].hdr.psn, i);
    expect_ref(data[i], m, mtu);
  }
  ASSERT_TRUE(f.rcq_b.poll().has_value());
  ASSERT_TRUE(f.rcq_a.poll().has_value());
}

TEST(HcaSegmentation, QueuedRunDrainsAfterQpEntersError) {
  // Nothing reaches b, and the first RTO exhausts the retry budget
  // while most of the run still waits in the HCA queue.
  HcaConfig cfg;
  cfg.rto = 2000;
  cfg.rc_retry_count = 0;
  BackToBack f(cfg);
  auto [qa, qb] = f.rc_pair();
  const std::uint32_t mtu = cfg.mtu;
  f.drop_ab = [](const IbPacket&) { return true; };
  const RefMsg m{0, kMiB, app_token(1)};
  qa->post_send(SendWr{.wr_id = 7, .length = m.length, .app_payload = m.app});
  bool checked = false;
  f.sim.schedule(cfg.rto + 1, [&] {
    EXPECT_TRUE(qa->in_error());
    EXPECT_LT(f.hca_a.stats().pkts_tx, 512u);
    checked = true;
  });
  f.sim.run();
  ASSERT_TRUE(checked);

  auto cqe = f.scq_a.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 7u);
  EXPECT_FALSE(cqe->success);
  // The errored QP's queued run still went out whole, exactly once.
  ASSERT_EQ(f.sent_ab.size(), 512u);
  for (std::size_t i = 0; i < f.sent_ab.size(); ++i) {
    EXPECT_EQ(f.sent_ab[i].hdr.psn, i);
    expect_ref(f.sent_ab[i], m, mtu);
  }
  EXPECT_EQ(f.hca_a.stats().pkts_tx, 512u);
}

TEST(HcaSegmentation, QueuedRunDrainsAfterQpIsDestroyed) {
  BackToBack f;
  auto [qa, qb] = f.rc_pair();
  const std::uint32_t mtu = f.hca_a.config().mtu;
  const RefMsg m{0, kMiB, app_token(1)};
  qb->post_recv(RecvWr{.wr_id = 1});
  qa->post_send(SendWr{.wr_id = 1, .length = m.length, .app_payload = m.app});
  EXPECT_LT(f.hca_a.stats().pkts_tx, 512u);
  f.hca_a.destroy_qp(qa->qpn());
  f.sim.run();

  // The run owns its headers, so it drains intact without the QP...
  ASSERT_EQ(f.sent_ab.size(), 512u);
  for (std::size_t i = 0; i < f.sent_ab.size(); ++i) {
    EXPECT_EQ(f.sent_ab[i].hdr.psn, i);
    expect_ref(f.sent_ab[i], m, mtu);
  }
  auto cqe = f.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, m.length);
  EXPECT_EQ(cqe->app_payload, m.app);
  // ...and b's ACKs for it find no QP at a.
  EXPECT_GT(qb->stats().acks_sent, 0u);
  EXPECT_EQ(f.hca_a.stats().pkts_unroutable, qb->stats().acks_sent);
  EXPECT_EQ(f.scq_a.poll(), std::nullopt);
}

TEST(HcaSegmentation, UnknownQpnIsUnroutable) {
  BackToBack f;
  auto [qa, qb] = f.rc_pair();
  qa->connect(f.hca_b.lid(), qb->qpn() + 100);  // beyond b's QP table
  qa->post_send(SendWr{.length = 64});
  f.sim.run_until(f.hca_a.config().rto / 2);  // before any retry
  EXPECT_EQ(f.hca_b.stats().pkts_unroutable, 1u);
  EXPECT_EQ(qb->stats().msgs_received, 0u);
}

TEST(HcaSegmentation, BufferDroppedDatagramsReleaseTheirTags) {
  // One 2 KiB datagram every 280 ns of HCA time into a link that
  // drains one every ~2.1 us and buffers two: most are dropped at the
  // uplink, never serialize, and so never complete.
  const std::uint32_t dgram = 2048;
  BackToBack f({}, {.bytes_per_ns = 1.0,
                    .propagation = 1000,
                    .buffer_bytes = 2 * (dgram + kUdHeaderBytes)});
  UdQp& qa = f.hca_a.create_ud_qp(f.scq_a, f.rcq_a);
  UdQp& qb = f.hca_b.create_ud_qp(f.scq_b, f.rcq_b);
  std::uint64_t completions = 0;
  f.scq_a.set_callback([&](const Cqe& e) {
    EXPECT_TRUE(e.success);
    ++completions;
  });
  std::size_t peak_pending = 0;
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 16; ++i) {
      qa.post_send(SendWr{.wr_id = static_cast<std::uint64_t>(i),
                          .length = dgram},
                   UdDest{f.hca_b.lid(), qb.qpn()});
    }
    peak_pending = std::max(peak_pending, f.hca_a.pending_wire_completions());
    f.sim.run();
    EXPECT_EQ(f.hca_a.pending_wire_completions(), 0u);
  }
  EXPECT_EQ(peak_pending, 16u);
  EXPECT_GT(f.ab.stats().packets_dropped_buffer, 0u);
  EXPECT_EQ(completions, f.ab.stats().packets_sent);
  EXPECT_EQ(completions + f.ab.stats().packets_dropped_buffer, 50u * 16u);
}

}  // namespace
}  // namespace ibwan::ib
