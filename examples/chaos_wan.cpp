// Runs one TCP bulk transfer across the Longbow WAN with the full
// chaos plan attached — Gilbert–Elliott bursty loss, a mid-transfer
// link flap, bounded jitter, and a WAN-buffer brownout — and prints
// the drop accounting the fault subsystem keeps. Two things to notice:
//
//   * conservation: every byte the WAN accepted is either delivered or
//     attributed to a named drop bucket (no silent loss);
//   * determinism: the same seed reproduces the same faulted run
//     byte-for-byte, because each fault generator draws from its own
//     named RNG stream (`Simulator::rng_stream`).
//
// The same plan is available to every bench as a JSON file:
//   build/bench/fig5_rc_bandwidth --faults examples/chaos_plan.json
// Format documented in EXPERIMENTS.md ("Fault plans").
#include <cstdint>
#include <cstdio>

#include "core/report.hpp"
#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/wan.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp.hpp"

using namespace ibwan;

namespace {

struct Outcome {
  double seconds = 0;
  net::Link::Stats wan;
};

Outcome run_once(std::uint64_t seed) {
  sim::Simulator sim;
  sim.seed(seed);
  net::Fabric fabric(sim, {.nodes_a = 1, .nodes_b = 1});
  ib::Hca hca_a(fabric.node(0), {});
  ib::Hca hca_b(fabric.node(1), {});
  ipoib::IpoibDevice dev_a(hca_a, {}), dev_b(hca_b, {});
  tcp::TcpStack stack_a(dev_a, {}), stack_b(dev_b, {});
  fabric.set_wan_delay(100'000);  // 100 us, a ~20 km Longbow hop
  ipoib::IpoibDevice::link(dev_a, dev_b);

  net::FaultPlanConfig plan;
  plan.ge = {.p_good_to_bad = 0.002,
             .p_bad_to_good = 0.1,
             .loss_good = 0.0001,
             .loss_bad = 0.2};
  plan.jitter_max = 5'000;  // up to 5 us extra per packet
  plan.flaps.push_back({.down_at = 20'000'000, .down_for = 5'000'000});
  plan.brownouts.push_back(
      {.at = 50'000'000, .duration = 20'000'000, .buffer_bytes = 64 << 10});
  fabric.longbows()->apply_faults(plan);

  const std::uint64_t bytes = 16ull << 20;
  stack_b.listen(7, [](tcp::TcpConnection&) {});
  tcp::TcpConnection& c = stack_a.connect(1, 7);
  c.send(bytes);
  sim.run();

  Outcome out;
  out.seconds = sim::to_seconds(sim.now());
  out.wan = fabric.longbows()->wan_link_a_to_b().stats();
  return out;
}

}  // namespace

int main() {
  core::banner(
      "Chaos on the WAN: a 16 MB TCP transfer through bursty loss,\n"
      "a 5 ms link flap, 5 us jitter and a 20 ms buffer brownout");

  const Outcome a = run_once(7);
  const net::Link::Stats& s = a.wan;

  std::printf("  transfer completed in %.3f s (clean WAN: ~0.017 s)\n\n",
              a.seconds);
  std::printf("  WAN a->b accounting (packets):\n");
  std::printf("    %-28s %8llu\n", "sent",
              static_cast<unsigned long long>(s.packets_sent));
  std::printf("    %-28s %8llu\n", "delivered",
              static_cast<unsigned long long>(s.packets_delivered));
  std::printf("    %-28s %8llu\n", "dropped: bursty loss (GE)",
              static_cast<unsigned long long>(s.packets_dropped_fault));
  std::printf("    %-28s %8llu\n", "dropped: link down",
              static_cast<unsigned long long>(s.packets_dropped_down));
  std::printf("    %-28s %8llu\n", "dropped: brownout buffer",
              static_cast<unsigned long long>(s.packets_dropped_brownout));
  std::printf("    %-28s %8llu  (%llu ns down across %llu flap)\n",
              "link flaps", static_cast<unsigned long long>(s.flaps),
              static_cast<unsigned long long>(s.down_ns),
              static_cast<unsigned long long>(s.flaps));

  const std::uint64_t in_flight_drops =
      s.packets_dropped_fault + s.packets_dropped_down;
  std::printf(
      "\n  conservation: sent %llu == delivered %llu + in-flight drops "
      "%llu  %s\n",
      static_cast<unsigned long long>(s.packets_sent),
      static_cast<unsigned long long>(s.packets_delivered),
      static_cast<unsigned long long>(in_flight_drops),
      s.packets_sent == s.packets_delivered + in_flight_drops ? "OK"
                                                              : "VIOLATED");

  const Outcome b = run_once(7);
  std::printf(
      "  determinism: rerun with the same seed -> %.9f s vs %.9f s  %s\n",
      a.seconds, b.seconds,
      a.seconds == b.seconds && b.wan.packets_dropped_fault ==
                                    s.packets_dropped_fault
          ? "identical"
          : "DIVERGED");
  return 0;
}
