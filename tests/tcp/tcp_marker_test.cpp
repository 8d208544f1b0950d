// Record-marking (the RPC framing carried on the TCP stream):
// exactly-once, in-order marker delivery including under loss.
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

struct MarkerWorld {
  MarkerWorld()
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        hca_a(fabric.node(0), {}),
        hca_b(fabric.node(1), {}),
        dev_a(hca_a, {}),
        dev_b(hca_b, {}),
        stack_a(dev_a),
        stack_b(dev_b) {
    ipoib::IpoibDevice::link(dev_a, dev_b);
  }
  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca hca_a, hca_b;
  ipoib::IpoibDevice dev_a, dev_b;
  TcpStack stack_a, stack_b;
};

std::shared_ptr<const int> tag(int v) { return std::make_shared<int>(v); }

TEST(TcpMarkers, DeliveredInOrder) {
  MarkerWorld w;
  std::vector<int> got;
  w.stack_b.listen(9, [&](TcpConnection& c) {
    c.set_on_marker([&](std::shared_ptr<const void> m) {
      got.push_back(*static_cast<const int*>(m.get()));
    });
  });
  TcpConnection& c = w.stack_a.connect(1, 9);
  for (int i = 0; i < 50; ++i) c.send_marked(1000 + i, tag(i));
  w.sim.run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(TcpMarkers, TinyRecordsShareOneSegment) {
  MarkerWorld w;
  std::vector<int> got;
  w.stack_b.listen(9, [&](TcpConnection& c) {
    c.set_on_marker([&](std::shared_ptr<const void> m) {
      got.push_back(*static_cast<const int*>(m.get()));
    });
  });
  TcpConnection& c = w.stack_a.connect(1, 9);
  // 10 records of 16 bytes: several markers inside one MSS.
  for (int i = 0; i < 10; ++i) c.send_marked(16, tag(i));
  w.sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
}

TEST(TcpMarkers, LargeRecordSpansManySegments) {
  MarkerWorld w;
  int fired = 0;
  std::uint64_t delivered_at_marker = 0;
  w.stack_b.listen(9, [&](TcpConnection& c) {
    c.set_on_marker([&](std::shared_ptr<const void>) {
      ++fired;
      delivered_at_marker = c.bytes_delivered();
    });
  });
  TcpConnection& c = w.stack_a.connect(1, 9);
  c.send_marked(1 << 20, tag(1));
  w.sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(delivered_at_marker, 1u << 20);  // fires with the last byte
}

TEST(TcpMarkers, ExactlyOnceUnderLoss) {
  MarkerWorld w;
  w.sim.seed(78);
  w.fabric.wan_pair(0).apply_faults({.ge = {.loss_good = 0.01}});
  std::vector<int> got;
  w.stack_b.listen(9, [&](TcpConnection& c) {
    c.set_on_marker([&](std::shared_ptr<const void> m) {
      got.push_back(*static_cast<const int*>(m.get()));
    });
  });
  TcpConnection& c = w.stack_a.connect(1, 9);
  for (int i = 0; i < 100; ++i) c.send_marked(5000, tag(i));
  w.sim.run();
  ASSERT_EQ(got.size(), 100u) << "markers lost or duplicated";
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(w.fabric.wan_pair(0).wan_link_a_to_b().stats()
                .packets_dropped_fault,
            0u);
  EXPECT_GT(c.stats().retransmits + c.stats().fast_retransmits, 0u);
}

TEST(TcpMarkers, InterleavedPlainAndMarkedSends) {
  MarkerWorld w;
  int fired = 0;
  std::uint64_t total = 0;
  w.stack_b.listen(9, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { total += n; });
    c.set_on_marker([&](std::shared_ptr<const void>) { ++fired; });
  });
  TcpConnection& c = w.stack_a.connect(1, 9);
  c.send(10'000);
  c.send_marked(5'000, tag(1));
  c.send(10'000);
  c.send_marked(5'000, tag(2));
  w.sim.run();
  EXPECT_EQ(total, 30'000u);
  EXPECT_EQ(fired, 2);
}

TEST(TcpMarkers, PartiallyNewSegmentDeliversOnlyItsNewBytes) {
  // The test plays the client by hand on node a, so it can send a resend
  // cut at other boundaries than the original: [500, 1500) after
  // [0, 1000) has been delivered. Its last 500 bytes are new.
  MarkerWorld w;
  w.dev_a.set_ip_sink([](ipoib::IpPacket&&) {});  // drop the server's acks
  std::uint64_t delivered = 0;
  std::vector<int> got;
  w.stack_b.listen(9, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { delivered += n; });
    c.set_on_marker([&](std::shared_ptr<const void> m) {
      got.push_back(*static_cast<const int*>(m.get()));
    });
  });
  const auto inject = [&w](Segment seg) {
    seg.src_port = 40000;
    seg.dst_port = 9;
    seg.wnd = 1 << 20;
    ipoib::IpPacket pkt;
    pkt.dst = w.dev_b.lid();
    pkt.payload_bytes = seg.len;
    pkt.l4 = std::make_shared<Segment>(std::move(seg));
    w.dev_a.send_ip(std::move(pkt));
    w.sim.run();
  };
  inject({.syn = true});
  inject({.seq = 0, .len = 1000, .markers = {{500, tag(1)}, {1000, tag(2)}}});
  ASSERT_EQ(delivered, 1000u);
  // Marker 2 ends at the old rcv_nxt: it has fired and must not again.
  inject({.seq = 500,
          .len = 1000,
          .markers = {{1000, tag(2)}, {1500, tag(3)}}});
  EXPECT_EQ(delivered, 1500u);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace ibwan::tcp
