#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

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

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 2.0, .propagation = 100}, "l");
  Time arrival = 0;
  link.set_sink([&](Packet&&) { arrival = sim.now(); });
  link.send(make_packet(1000));
  sim.run();
  // 1000 B at 2 B/ns = 500 ns serialize + 100 ns propagation.
  EXPECT_EQ(arrival, 600u);
}

TEST(Link, BackToBackPacketsQueueFifo) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "l");
  std::vector<std::pair<std::uint64_t, Time>> got;
  link.set_sink([&](Packet&& p) { got.emplace_back(p.id, sim.now()); });
  link.send(make_packet(100, 1));
  link.send(make_packet(100, 2));
  link.send(make_packet(100, 3));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<std::uint64_t, Time>{1, 100}));
  EXPECT_EQ(got[1], (std::pair<std::uint64_t, Time>{2, 200}));
  EXPECT_EQ(got[2], (std::pair<std::uint64_t, Time>{3, 300}));
}

TEST(Link, IdleGapRestartsSerializationClock) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 10}, "l");
  std::vector<Time> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(sim.now()); });
  link.send(make_packet(50));
  sim.run();
  sim.run_until(1000);
  link.send(make_packet(50));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 60u);
  EXPECT_EQ(arrivals[1], 1060u);
}

TEST(Link, ExtraDelayAddsToPropagation) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 100}, "l");
  Time arrival = 0;
  link.set_sink([&](Packet&&) { arrival = sim.now(); });
  link.set_extra_delay(5000);
  link.send(make_packet(10));
  sim.run();
  EXPECT_EQ(arrival, 10u + 100u + 5000u);
}

TEST(Link, ExtraDelayDoesNotAffectThroughput) {
  // The delay knob emulates distance: it shifts arrivals but must not
  // change the serialization rate (pipe keeps streaming).
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "l");
  link.set_extra_delay(1'000'000);
  std::vector<Time> arrivals;
  link.set_sink([&](Packet&&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 10; ++i) link.send(make_packet(1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 10u);
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], 1000u);  // line rate
  }
}

TEST(Link, SerializedHookFiresAtWireCompletion) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 500}, "l");
  Time serialized_at = 0, delivered_at = 0;
  std::vector<std::uint32_t> tags;
  link.set_serialized_hook([&](std::uint32_t tag) {
    serialized_at = sim.now();
    tags.push_back(tag);
  });
  std::uint32_t delivered_tag = 99;
  link.set_sink([&](Packet&& p) {
    delivered_at = sim.now();
    delivered_tag = p.tx_tag;
  });
  Packet p = make_packet(100);
  p.tx_tag = 7;
  link.send(std::move(p));
  link.send(make_packet(100));  // untagged: never reported
  sim.run();
  EXPECT_EQ(serialized_at, 100u);
  EXPECT_EQ(tags, std::vector<std::uint32_t>{7});
  EXPECT_EQ(delivered_at, 700u);  // the second packet, 100 ns behind
  EXPECT_EQ(delivered_tag, 0u);   // cleared as it left the first link
}

TEST(Link, SerializedHookFiresOnFirstLinkOnly) {
  Simulator sim;
  Link first(sim, {.bytes_per_ns = 1.0, .propagation = 10}, "first");
  Link second(sim, {.bytes_per_ns = 1.0, .propagation = 10}, "second");
  int first_fired = 0, second_fired = 0, delivered = 0;
  first.set_serialized_hook([&](std::uint32_t) { ++first_fired; });
  second.set_serialized_hook([&](std::uint32_t) { ++second_fired; });
  first.set_sink([&](Packet&& p) { second.send(std::move(p)); });
  second.set_sink([&](Packet&&) { ++delivered; });
  Packet p = make_packet(100);
  p.tx_tag = 1;
  first.send(std::move(p));
  sim.run();
  EXPECT_EQ(first_fired, 1);
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(delivered, 1);
}

TEST(Link, SerializedHookSkipsBufferDrops) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0, .buffer_bytes = 150},
            "l");
  std::vector<std::uint32_t> tags;
  link.set_serialized_hook([&](std::uint32_t tag) { tags.push_back(tag); });
  link.set_sink([](Packet&&) {});
  Packet a = make_packet(100);
  a.tx_tag = 1;
  Packet b = make_packet(100);
  b.tx_tag = 2;
  EXPECT_TRUE(link.send(std::move(a)));
  EXPECT_FALSE(link.send(std::move(b)));  // 200 > 150: dropped unserialized
  sim.run();
  EXPECT_EQ(tags, std::vector<std::uint32_t>{1});
}

TEST(Link, SerializedHookFiresForPacketKilledByFlap) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 500}, "l");
  int fired = 0, delivered = 0;
  link.set_serialized_hook([&](std::uint32_t) { ++fired; });
  link.set_sink([&](Packet&&) { ++delivered; });
  Packet p = make_packet(100);
  p.tx_tag = 3;
  link.send(std::move(p));
  sim.schedule(50, [&] { link.set_down(true); });  // mid-serialization
  sim.schedule(80, [&] { link.set_down(false); });
  sim.run();
  // The datagram reached the wire, so it completes, though it is lost.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().packets_dropped_down, 1u);
}

TEST(Link, FiniteBufferDropsOverflow) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0, .buffer_bytes = 250},
            "l");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  EXPECT_TRUE(link.send(make_packet(100)));
  EXPECT_TRUE(link.send(make_packet(100)));
  EXPECT_FALSE(link.send(make_packet(100)));  // 300 > 250
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().packets_dropped_buffer, 1u);
}

TEST(Link, BufferDrainsAsPacketsSerialize) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0, .buffer_bytes = 150},
            "l");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  EXPECT_TRUE(link.send(make_packet(100)));
  sim.run_until(100);  // first packet fully serialized
  EXPECT_TRUE(link.send(make_packet(100)));
  sim.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Link, StatsCountPacketsAndBytes) {
  Simulator sim;
  Link link(sim, {.bytes_per_ns = 1.0, .propagation = 0}, "l");
  link.set_sink([](Packet&&) {});
  link.send(make_packet(100));
  link.send(make_packet(200));
  sim.run();
  EXPECT_EQ(link.stats().packets_sent, 2u);
  EXPECT_EQ(link.stats().bytes_sent, 300u);
}

}  // namespace
}  // namespace ibwan::net
