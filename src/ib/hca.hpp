// Host Channel Adapter.
//
// One HCA per fabric node. Owns the QP namespace, a transmit engine that
// charges per-WQE and per-packet processing costs before handing packets
// to the node's uplink, and a receive engine that charges per-packet
// processing before demultiplexing to QPs.
//
// The transmit engine segments messages itself, as a real HCA does. A QP
// hands it a *run*: the headers of `count` consecutive packets in one
// immutable array, built with a single allocation. Each engine turn cuts
// the next packet off the run at the head of its queue, charges
// pkt_overhead (plus wqe_overhead when the packet is the first of its
// message) and passes it on with an aliasing pointer into the array. A
// run holds exactly the packets, in exactly the order, that the same
// number of single-packet queue entries would, so costs and event order
// do not depend on how traffic is split into runs. ACK/NAK, RDMA-read
// requests and UD datagrams are runs of one.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ib/cq.hpp"
#include "ib/qp.hpp"
#include "ib/verbs.hpp"
#include "ib/wire.hpp"
#include "net/node.hpp"
#include "sim/containers.hpp"
#include "sim/simulator.hpp"

namespace ibwan::ib {

class Hca {
 public:
  struct Stats {
    std::uint64_t pkts_tx = 0;
    std::uint64_t pkts_rx = 0;
    std::uint64_t pkts_unroutable = 0;
  };

  Hca(net::Node& node, HcaConfig config);

  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  Lid lid() const { return node_.id(); }
  sim::Simulator& sim() { return node_.sim(); }
  const HcaConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  RcQp& create_rc_qp(Cq& send_cq, Cq& recv_cq);
  UdQp& create_ud_qp(Cq& send_cq, Cq& recv_cq);

  /// Registers a memory region of `length` bytes in the node's simulated
  /// address space and returns its token.
  Mr register_mr(std::uint64_t length);

  /// 64-bit word at a simulated address — the target store for RDMA
  /// atomics (fetch-add / compare-swap). Unwritten words read as zero.
  std::uint64_t& memory_word(std::uint64_t addr) { return memory_[addr]; }

  /// Removes a QP. Runs it already handed to the transmit engine still
  /// go out (they own their headers); later inbound packets for its qpn
  /// count as unroutable.
  void destroy_qp(Qpn qpn);

  /// Internal: queues a run of `count` packets whose headers are
  /// `head[0..count)` (one array; `head` owns it). Packet i occupies
  /// `head[i].payload_bytes + header_bytes` on the wire. `control` routes
  /// the run through the priority lane (ACK/NAK).
  void transmit(Lid dst, std::shared_ptr<const IbPacket> head,
                std::uint32_t count, std::uint32_t header_bytes,
                bool control = false);

  /// Internal: queues one UD datagram; `cqe` lands on `cq` (after
  /// cqe_latency) once the datagram clears the local wire. A datagram
  /// the uplink buffer drops never completes.
  void transmit_datagram(Lid dst, std::shared_ptr<const IbPacket> pkt,
                         std::uint32_t header_bytes, Cq& cq, Cqe cqe);

  /// UD send completions awaiting their datagram's serialization (test
  /// hook for the bounded tag slab).
  std::size_t pending_wire_completions() const { return on_wire_.size(); }

 private:
  /// A run of packets waiting for the transmit engine.
  struct TxItem {
    std::shared_ptr<const void> owner;  // the header array
    const IbPacket* next = nullptr;     // next header to cut
    Lid dst = 0;
    std::uint32_t left = 0;  // packets not yet cut
    std::uint32_t header_bytes = 0;
    std::uint32_t tx_tag = 0;
    bool control = false;
  };

  /// A UD send completion, keyed by tx tag (slab index + 1).
  struct WireCompletion {
    Cq* cq = nullptr;
    Cqe cqe;
  };

  struct RxItem {
    std::shared_ptr<const IbPacket> pkt;
    Lid src = 0;
  };

  void enqueue(TxItem&& item);
  void on_node_packet(net::Packet&& p);
  void rx_process();
  void tx_drain();
  void tx_send();
  void on_serialized(std::uint32_t tx_tag);

  net::Node& node_;
  HcaConfig config_;
  std::vector<std::unique_ptr<QpBase>> qps_;
  std::vector<QpBase*> qp_index_;  // by qpn; null = unknown/destroyed
  Qpn next_qpn_ = 1;
  std::uint64_t next_mr_addr_ = 0x1000;
  std::uint32_t next_rkey_ = 1;
  std::unordered_map<std::uint64_t, std::uint64_t> memory_;
  sim::Fifo<TxItem> txq_data_;
  sim::Fifo<TxItem> txq_ctrl_;
  net::Packet tx_pkt_;  // the packet paying its tx cost (while tx_busy_)
  bool tx_busy_ = false;
  sim::Slab<WireCompletion> on_wire_;
  sim::Time rx_busy_ = 0;
  /// Packets paying their rx cost. Start times only increase, so they
  /// finish in arrival order.
  sim::Fifo<RxItem> rxq_;
  std::uint64_t next_pkt_id_ = 1;
  Stats stats_;
  // Registered metrics (docs/METRICS.md §ib.hca); scope "node<lid>/ib.hca".
  sim::Counter* obs_pkts_tx_ = nullptr;
  sim::Counter* obs_pkts_rx_ = nullptr;
  sim::Counter* obs_pkts_unroutable_ = nullptr;
};

}  // namespace ibwan::ib
