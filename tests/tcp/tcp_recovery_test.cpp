// Loss-recovery accounting and tail-loss regressions.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/wan.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::tcp {
namespace {

using namespace ibwan::sim::literals;

struct World {
  World(bool sack, double loss, sim::Duration delay, std::uint64_t seed = 3)
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

Outcome transfer(World& w, std::uint64_t bytes,
                 std::optional<TcpConfig> cfg = std::nullopt) {
  Outcome out;
  w.stack_b.listen(7, [&](TcpConnection& c) {
    c.set_on_delivered([&](std::uint64_t n) { out.delivered += n; });
  });
  TcpConnection& c = w.stack_a.connect(1, 7, cfg);
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

TEST(TcpRecovery, RetransmitsCountResentSegmentsNotEpisodes) {
  // Regression: Stats::retransmits used to tick once per recovery
  // episode (the per-segment accounting in pump() compared snd_nxt_
  // against snd_una_ *after* the go-back-N rewind had equalized them,
  // so it never fired). Go-back-N resends a whole flight per episode;
  // the segment count must exceed the episode count.
  World w(/*sack=*/false, /*loss=*/0.01, /*delay=*/1000_us);
  const auto out = transfer(w, 8 << 20);
  EXPECT_EQ(out.delivered, 8u << 20);
  EXPECT_GT(out.stats.retransmits, 0u);
  EXPECT_GT(out.stats.retransmits,
            out.stats.rto_fires + out.stats.fast_retransmits);
}

TEST(TcpRecovery, SackResendsTailHoleWithoutRtoFloor) {
  // Regression: retransmit_holes() only resent the gaps *between* SACK
  // blocks. A lost tail segment — above the highest SACK block, below
  // snd_nxt_ — was never resent by the SACK path, so every tail loss
  // ate a full min_rto (2 ms) stall.
  World w(/*sack=*/true, /*loss=*/0.0, /*delay=*/0);
  // A large initial cwnd puts all 12 segments on the wire back to back,
  // so the Nth full-size packet on the WAN is deterministically data
  // segment N-1's first transmission.
  tcp::TcpConfig tcfg = World::make_tcp(true);
  tcfg.init_cwnd_segs = 16;
  const std::uint32_t mss = w.stack_a.effective_mss(tcfg);
  const std::uint64_t bytes = 12ull * mss;

  // Deterministically kill the first transmission of data segment 5
  // (creates SACK blocks and dup acks) and of segment 11 — the tail.
  // Counting only full-size packets skips the SYN and pure acks.
  auto data_count = std::make_shared<int>(0);
  w.fabric.longbows()->wan_link_a_to_b().set_loss_model(
      [data_count, mss](const net::Packet& p) {
        if (p.wire_size < mss) return false;
        ++*data_count;
        return *data_count == 6 || *data_count == 12;
      });

  const auto out = transfer(w, bytes, tcfg);
  EXPECT_EQ(out.delivered, bytes);
  // The tail hole is recovered inside the fast-recovery episode: no
  // retransmission timer fires and the transfer finishes well under the
  // 2 ms RTO floor it used to pay.
  EXPECT_EQ(out.stats.rto_fires, 0u);
  EXPECT_LT(out.seconds, 0.0015);
  EXPECT_GT(out.stats.retransmits, 0u);
}

TEST(TcpRecovery, GoBackNResendsNeverFeedTheRttEstimator) {
  // Regression (Karn's rule): pump() armed the RTT probe on go-back-N
  // resends too. The ack of the first copy, already on its way back,
  // then closed the probe microseconds after the resend, dragging srtt
  // far below the path RTT, and the shrunken RTO fired spuriously.
  World w(/*sack=*/false, /*loss=*/0.0, /*delay=*/10'000_us);
  net::FaultPlanConfig bursty;
  bursty.ge.p_good_to_bad = 0.002;
  bursty.ge.p_bad_to_good = 0.1;
  bursty.ge.loss_good = 0.0001;
  bursty.ge.loss_bad = 0.2;
  w.fabric.wan_pair(0).apply_faults(bursty);
  const auto out = transfer(w, 2 << 20);
  EXPECT_EQ(out.delivered, 2u << 20);
  EXPECT_GT(out.stats.retransmits, 0u);
  EXPECT_GE(out.stats.srtt_us, 20'000.0);  // never below the 20 ms RTT
  // Fast retransmit recovers every burst of this run; with srtt shrunk
  // the timer used to fire ~50 times as well.
  EXPECT_EQ(out.stats.rto_fires, 0u);
}

}  // namespace
}  // namespace ibwan::tcp
