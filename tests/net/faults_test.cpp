#include "net/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "net/wan.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {
namespace {

using sim::Simulator;
using sim::Time;

Packet make_packet(std::uint32_t size, std::uint64_t id = 0) {
  Packet p;
  p.wire_size = size;
  p.id = id;
  return p;
}

/// After the sim drains, every byte the link accepted must be accounted
/// for: delivered or attributed to a drop bucket.
void expect_bytes_conserved(const Link& link) {
  const Link::Stats& s = link.stats();
  EXPECT_EQ(s.bytes_sent, s.bytes_delivered + s.bytes_dropped)
      << link.name() << ": bytes leaked";
  EXPECT_EQ(s.packets_sent, s.packets_delivered + s.packets_dropped_fault +
                                s.packets_dropped_down)
      << link.name() << ": packets leaked";
}

// ---------------------------------------------------------------------------
// JSON plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanJson, ParsesFullPlan) {
  const std::string text = R"({
    "gilbert_elliott": { "p_good_to_bad": 0.01, "p_bad_to_good": 0.2,
                         "loss_good": 0.001, "loss_bad": 0.3 },
    "jitter_max_us": 20,
    "flaps":     [ { "down_at_us": 5000, "down_for_us": 800 } ],
    "brownouts": [ { "at_us": 20000, "for_us": 5000,
                     "buffer_bytes": 16384 } ]
  })";
  FaultPlanConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_fault_plan(text, &cfg, &err)) << err;
  EXPECT_TRUE(cfg.any());
  EXPECT_DOUBLE_EQ(cfg.ge.p_good_to_bad, 0.01);
  EXPECT_DOUBLE_EQ(cfg.ge.p_bad_to_good, 0.2);
  EXPECT_DOUBLE_EQ(cfg.ge.loss_good, 0.001);
  EXPECT_DOUBLE_EQ(cfg.ge.loss_bad, 0.3);
  EXPECT_EQ(cfg.jitter_max, 20 * sim::kMicrosecond);
  ASSERT_EQ(cfg.flaps.size(), 1u);
  EXPECT_EQ(cfg.flaps[0].down_at, 5000 * sim::kMicrosecond);
  EXPECT_EQ(cfg.flaps[0].down_for, 800 * sim::kMicrosecond);
  ASSERT_EQ(cfg.brownouts.size(), 1u);
  EXPECT_EQ(cfg.brownouts[0].at, 20000 * sim::kMicrosecond);
  EXPECT_EQ(cfg.brownouts[0].duration, 5000 * sim::kMicrosecond);
  EXPECT_EQ(cfg.brownouts[0].buffer_bytes, 16384u);
}

TEST(FaultPlanJson, EmptyObjectIsInertPlan) {
  FaultPlanConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_fault_plan("{}", &cfg, &err)) << err;
  EXPECT_FALSE(cfg.any());
}

TEST(FaultPlanJson, RejectsMalformedJson) {
  FaultPlanConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_fault_plan("{ \"flaps\": [", &cfg, &err));
  EXPECT_FALSE(err.empty());
}

TEST(FaultPlanJson, RejectsUnknownKeys) {
  // Typos must not silently disable a fault source.
  FaultPlanConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_fault_plan(R"({ "jiter_max_us": 20 })", &cfg, &err));
  EXPECT_NE(err.find("jiter_max_us"), std::string::npos) << err;
}

TEST(FaultPlanJson, RejectsTrailingGarbage) {
  FaultPlanConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_fault_plan("{} trailing", &cfg, &err));
}

// ---------------------------------------------------------------------------
// Gilbert–Elliott loss
// ---------------------------------------------------------------------------

TEST(FaultPlanGe, BadStateDropsBursts) {
  Simulator sim;
  sim.seed(7);
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "wan");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  FaultPlanConfig cfg;
  cfg.ge = {.p_good_to_bad = 0.05,
            .p_bad_to_good = 0.2,
            .loss_good = 0.0,
            .loss_bad = 0.5};
  FaultPlan plan(sim, link, cfg);
  for (int i = 0; i < 2000; ++i) link.send(make_packet(10));
  sim.run();
  const Link::Stats& s = link.stats();
  EXPECT_GT(s.packets_dropped_fault, 0u);
  EXPECT_EQ(delivered + static_cast<int>(s.packets_dropped_fault), 2000);
  expect_bytes_conserved(link);
}

TEST(FaultPlanGe, BernoulliPlanDropsAtRate) {
  // A chain that never leaves its good state is i.i.d. loss at loss_good.
  Simulator sim;
  sim.seed(7);
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "wan");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  const FaultPlan plan(sim, link, {.ge = {.loss_good = 0.5}});
  constexpr int kPackets = 1000;
  for (int i = 0; i < kPackets; ++i) link.send(make_packet(10));
  sim.run();
  const Link::Stats& s = link.stats();
  const double dropped = kPackets - delivered;
  // Within 5 standard deviations of Binomial(1000, 0.5): ~79 packets.
  const double sigma = std::sqrt(kPackets * 0.5 * 0.5);
  EXPECT_NEAR(dropped, kPackets * 0.5, 5.0 * sigma);
  EXPECT_EQ(s.packets_dropped_fault,
            static_cast<std::uint64_t>(kPackets - delivered));
  EXPECT_EQ(s.bytes_dropped, 10u * s.packets_dropped_fault);
  expect_bytes_conserved(link);
}

TEST(FaultPlanGe, PureGoodStateDropsNothing) {
  Simulator sim;
  sim.seed(7);
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "wan");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  // The chain flips states constantly but neither state ever drops: the
  // model is installed and drawing, yet perfectly inert.
  FaultPlanConfig cfg;
  cfg.ge = {.p_good_to_bad = 0.5,
            .p_bad_to_good = 0.5,
            .loss_good = 0.0,
            .loss_bad = 0.0};
  FaultPlan plan(sim, link, cfg);
  for (int i = 0; i < 500; ++i) link.send(make_packet(10));
  sim.run();
  EXPECT_EQ(delivered, 500);
  EXPECT_EQ(link.stats().packets_dropped_fault, 0u);
}

// ---------------------------------------------------------------------------
// Link flaps
// ---------------------------------------------------------------------------

TEST(FaultPlanFlap, DownWindowKillsInTransitAndRecovers) {
  Simulator sim;
  sim.seed(7);
  // 1 B/ns, 10 us propagation: a packet sent just before the flap is
  // still on the wire when the link goes down at t=50us.
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 10'000}, "wan");
  std::vector<Time> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(sim.now()); });
  FaultPlanConfig cfg;
  cfg.flaps.push_back({.down_at = 50'000, .down_for = 20'000});
  FaultPlan plan(sim, link, cfg);

  // One packet delivered well before the flap, one killed mid-flight,
  // one queued during the outage and delivered after the up transition.
  sim.schedule_at(1'000, [&] { link.send(make_packet(100)); });
  sim.schedule_at(45'000, [&] { link.send(make_packet(100)); });
  sim.schedule_at(60'000, [&] { link.send(make_packet(100)); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 11'100u);
  // Third packet waits out the outage: serializer restarts at 70us.
  EXPECT_EQ(arrivals[1], 70'000u + 100u + 10'000u);
  const Link::Stats& s = link.stats();
  EXPECT_EQ(s.packets_dropped_down, 1u);
  EXPECT_EQ(s.flaps, 1u);
  EXPECT_EQ(s.down_ns, 20'000u);
  EXPECT_FALSE(link.down());
  expect_bytes_conserved(link);
}

TEST(FaultPlanFlap, OverlappingWindowsNest) {
  Simulator sim;
  sim.seed(7);
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "wan");
  link.set_sink([](Packet&&) {});
  FaultPlanConfig cfg;
  cfg.flaps.push_back({.down_at = 10'000, .down_for = 30'000});
  cfg.flaps.push_back({.down_at = 20'000, .down_for = 40'000});  // until 60us
  FaultPlan plan(sim, link, cfg);
  sim.schedule_at(35'000, [&] { EXPECT_TRUE(link.down()); });
  // First window expired, second still open.
  sim.schedule_at(45'000, [&] { EXPECT_TRUE(link.down()); });
  sim.schedule_at(61'000, [&] { EXPECT_FALSE(link.down()); });
  sim.run();
  EXPECT_EQ(link.stats().flaps, 1u);  // one merged outage
}

// ---------------------------------------------------------------------------
// Jitter
// ---------------------------------------------------------------------------

TEST(FaultPlanJitter, DelaysBoundedByMax) {
  Simulator sim;
  sim.seed(7);
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 1'000}, "wan");
  std::vector<Time> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(sim.now()); });
  FaultPlanConfig cfg;
  cfg.jitter_max = 500;
  FaultPlan plan(sim, link, cfg);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(static_cast<Time>(i) * 10'000,
                    [&] { link.send(make_packet(10)); });
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 200u);
  bool any_jittered = false;
  for (int i = 0; i < 200; ++i) {
    const Time base = static_cast<Time>(i) * 10'000 + 10 + 1'000;
    ASSERT_GE(arrivals[i], base);
    ASSERT_LE(arrivals[i], base + 500);
    if (arrivals[i] != base) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

// ---------------------------------------------------------------------------
// Brownouts
// ---------------------------------------------------------------------------

TEST(FaultPlanBrownout, SqueezedBufferDropsThenRestores) {
  Simulator sim;
  sim.seed(7);
  Link link(sim,
            {.bytes_per_ns = 1.0, .propagation = 0, .buffer_bytes = 10'000},
            "wan");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  FaultPlanConfig cfg;
  cfg.brownouts.push_back(
      {.at = 10'000, .duration = 10'000, .buffer_bytes = 150});
  FaultPlan plan(sim, link, cfg);

  // During the brownout the buffer holds 150 B: a 100 B packet queued
  // behind another one overflows. After it, the full 10 KB is back.
  sim.schedule_at(15'000, [&] {
    EXPECT_TRUE(link.send(make_packet(100)));
    EXPECT_FALSE(link.send(make_packet(100)));  // 200 > 150
  });
  sim.schedule_at(30'000, [&] {
    EXPECT_TRUE(link.send(make_packet(100)));
    EXPECT_TRUE(link.send(make_packet(100)));  // 200 < 10'000 again
  });
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().packets_dropped_brownout, 1u);
  EXPECT_EQ(link.stats().packets_dropped_buffer, 1u);
}

// ---------------------------------------------------------------------------
// Longbow no-port accounting (regression: drops used to be silent)
// ---------------------------------------------------------------------------

TEST(LongbowNoPort, UnconnectedPortCountsDrops) {
  Simulator sim;
  Longbow lb(sim, "lb", /*pipeline_latency=*/1'000);
  // No wan_tx connected: LAN->WAN traffic has nowhere to go.
  lb.receive_from_lan(make_packet(100, /*id=*/1));
  sim.run();
  EXPECT_EQ(lb.drops_no_port(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, StreamsWithDifferentNamesDiffer) {
  Simulator sim;
  sim.seed(42);
  sim::Rng s1 = sim.rng_stream("a");
  sim::Rng s2 = sim.rng_stream("b");
  EXPECT_NE(s1.next_u64(), s2.next_u64());
  // Same name, same seed: reproducible.
  sim::Rng s3 = sim.rng_stream("a");
  sim::Rng s4 = sim.rng_stream("a");
  EXPECT_EQ(s3.next_u64(), s4.next_u64());
}

TEST(FaultDeterminism, SamePlanSameSeedReproduces) {
  auto run = [] {
    Simulator sim;
    sim.seed(1234);
    Link link(sim, {.bytes_per_ns = 1.0, .propagation = 1'000}, "wan");
    std::vector<std::pair<std::uint64_t, Time>> got;
    link.set_sink([&](Packet&& p) { got.emplace_back(p.id, sim.now()); });
    FaultPlanConfig cfg;
    cfg.ge = {.p_good_to_bad = 0.02,
              .p_bad_to_good = 0.3,
              .loss_good = 0.001,
              .loss_bad = 0.4};
    cfg.jitter_max = 200;
    cfg.flaps.push_back({.down_at = 100'000, .down_for = 30'000});
    FaultPlan plan(sim, link, cfg);
    for (int i = 0; i < 2000; ++i) {
      sim.schedule_at(static_cast<Time>(i) * 100,
                      [&link, i] { link.send(make_packet(10, i)); });
    }
    sim.run();
    return got;
  };
  const auto first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace ibwan::net
