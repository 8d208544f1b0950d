// Shared fixtures for verbs-layer tests: a two-node cluster-of-clusters
// fabric (one host per side of the Longbow pair) with HCAs and CQs, and
// two hosts joined back to back by a pair of links whose sinks can watch
// (and drop) every packet leaving a host.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "ib/wire.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace ibwan::ib::testing {

/// Creates a connected RC QP pair (a_side, b_side) on a fixture's two
/// HCAs and their CQs.
template <class Fixture>
std::pair<RcQp*, RcQp*> connected_rc_pair(Fixture& f) {
  RcQp& qa = f.hca_a.create_rc_qp(f.scq_a, f.rcq_a);
  RcQp& qb = f.hca_b.create_rc_qp(f.scq_b, f.rcq_b);
  qa.connect(f.hca_b.lid(), qb.qpn());
  qb.connect(f.hca_a.lid(), qa.qpn());
  return {&qa, &qb};
}

struct TwoNodeFabric {
  explicit TwoNodeFabric(HcaConfig hca_cfg = {},
                         net::FabricConfig fab_cfg = {.nodes_a = 1,
                                                      .nodes_b = 1})
      : fabric(sim, fab_cfg),
        hca_a(fabric.node(fabric.node_id(net::Cluster::kA, 0)), hca_cfg),
        hca_b(fabric.node(fabric.node_id(net::Cluster::kB, 0)), hca_cfg),
        scq_a(sim), rcq_a(sim), scq_b(sim), rcq_b(sim) {}

  std::pair<RcQp*, RcQp*> rc_pair() { return connected_rc_pair(*this); }

  std::pair<UdQp*, UdQp*> ud_pair() {
    UdQp& qa = hca_a.create_ud_qp(scq_a, rcq_a);
    UdQp& qb = hca_b.create_ud_qp(scq_b, rcq_b);
    return {&qa, &qb};
  }

  /// i.i.d. loss at rate p on both WAN directions: a fault plan that
  /// never leaves its good state. Call after seeding `sim` — the plan's
  /// RNG streams derive from the run seed.
  void set_wan_loss(double p) {
    fabric.wan_pair(0).apply_faults({.ge = {.loss_good = p}});
  }

  /// Packets the WAN loss model dropped, both directions.
  std::uint64_t wan_drops() {
    net::LongbowPair& wan = fabric.wan_pair(0);
    return wan.wan_link_a_to_b().stats().packets_dropped_fault +
           wan.wan_link_b_to_a().stats().packets_dropped_fault;
  }

  sim::Simulator sim;
  net::Fabric fabric;
  Hca hca_a;
  Hca hca_b;
  Cq scq_a, rcq_a, scq_b, rcq_b;
};

/// One packet as it left a host's uplink.
struct SentPacket {
  IbPacket hdr;
  std::uint32_t wire_size = 0;
  bool control = false;
};

/// Hosts a (lid 1) and b (lid 2) on two direct links. Each link's sink
/// records the packet, then delivers it unless `drop_ab`/`drop_ba`
/// says otherwise.
struct BackToBack {
  explicit BackToBack(HcaConfig hca_cfg = {},
                      net::Link::Config link_cfg = {.bytes_per_ns = 1.0,
                                                    .propagation = 1000})
      : ab(sim, link_cfg, "ab"),
        ba(sim, link_cfg, "ba"),
        na(sim, 1),
        nb(sim, 2),
        hca_a(attached(na, ab), hca_cfg),
        hca_b(attached(nb, ba), hca_cfg),
        scq_a(sim), rcq_a(sim), scq_b(sim), rcq_b(sim) {
    ab.set_sink([this](net::Packet&& p) {
      if (keep(p, sent_ab, drop_ab)) nb.deliver(std::move(p));
    });
    ba.set_sink([this](net::Packet&& p) {
      if (keep(p, sent_ba, drop_ba)) na.deliver(std::move(p));
    });
  }

  std::pair<RcQp*, RcQp*> rc_pair() { return connected_rc_pair(*this); }

  sim::Simulator sim;
  net::Link ab, ba;
  net::Node na, nb;
  Hca hca_a, hca_b;
  Cq scq_a, rcq_a, scq_b, rcq_b;
  std::vector<SentPacket> sent_ab, sent_ba;
  std::function<bool(const IbPacket&)> drop_ab, drop_ba;

 private:
  static net::Node& attached(net::Node& n, net::Link& uplink) {
    n.attach_uplink(&uplink);
    return n;
  }

  static bool keep(const net::Packet& p, std::vector<SentPacket>& log,
                   const std::function<bool(const IbPacket&)>& drop) {
    const auto& hdr = p.as<IbPacket>();
    log.push_back(SentPacket{hdr, p.wire_size, p.control});
    return !(drop && drop(hdr));
  }
};

}  // namespace ibwan::ib::testing
