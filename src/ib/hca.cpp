#include "ib/hca.hpp"

#include <cassert>
#include <utility>

#include "sim/log.hpp"

namespace ibwan::ib {

Hca::Hca(net::Node& node, HcaConfig config)
    : node_(node), config_(config), qp_index_(1, nullptr) {
  node_.set_receiver([this](net::Packet&& p) { on_node_packet(std::move(p)); });
  if (net::Link* up = node_.uplink()) {
    up->set_serialized_hook([this](std::uint32_t tag) { on_serialized(tag); });
  }
  auto& m = sim().metrics();
  const std::string scope = "node" + std::to_string(lid()) + "/ib.hca";
  obs_pkts_tx_ = &m.counter(scope, "pkts_tx", sim::MetricUnit::kPackets);
  obs_pkts_rx_ = &m.counter(scope, "pkts_rx", sim::MetricUnit::kPackets);
  obs_pkts_unroutable_ =
      &m.counter(scope, "pkts_unroutable", sim::MetricUnit::kPackets);
}

RcQp& Hca::create_rc_qp(Cq& send_cq, Cq& recv_cq) {
  auto qp = std::make_unique<RcQp>(*this, next_qpn_++, send_cq, recv_cq);
  RcQp& ref = *qp;
  qp_index_.push_back(qp.get());  // qpns are dense: 1, 2, 3...
  qps_.push_back(std::move(qp));
  return ref;
}

UdQp& Hca::create_ud_qp(Cq& send_cq, Cq& recv_cq) {
  auto qp = std::make_unique<UdQp>(*this, next_qpn_++, send_cq, recv_cq);
  UdQp& ref = *qp;
  qp_index_.push_back(qp.get());
  qps_.push_back(std::move(qp));
  return ref;
}

void Hca::destroy_qp(Qpn qpn) {
  assert(qpn < qp_index_.size() && qp_index_[qpn] != nullptr);
  qp_index_[qpn] = nullptr;
  std::erase_if(qps_, [qpn](const auto& qp) { return qp->qpn() == qpn; });
}

void Hca::transmit(Lid dst, std::shared_ptr<const IbPacket> head,
                   std::uint32_t count, std::uint32_t header_bytes,
                   bool control) {
  assert(count > 0);
  const IbPacket* first = head.get();
  enqueue(TxItem{.owner = std::move(head),
                 .next = first,
                 .dst = dst,
                 .left = count,
                 .header_bytes = header_bytes,
                 .control = control});
}

void Hca::transmit_datagram(Lid dst, std::shared_ptr<const IbPacket> pkt,
                            std::uint32_t header_bytes, Cq& cq, Cqe cqe) {
  const IbPacket* first = pkt.get();
  const std::uint32_t slot =
      on_wire_.put(WireCompletion{.cq = &cq, .cqe = std::move(cqe)});
  enqueue(TxItem{.owner = std::move(pkt),
                 .next = first,
                 .dst = dst,
                 .left = 1,
                 .header_bytes = header_bytes,
                 .tx_tag = slot + 1});
}

void Hca::enqueue(TxItem&& item) {
  (item.control ? txq_ctrl_ : txq_data_).push_back(std::move(item));
  if (!tx_busy_) tx_drain();
}

void Hca::tx_drain() {
  sim::Fifo<TxItem>* q = !txq_ctrl_.empty()
                             ? &txq_ctrl_
                             : (!txq_data_.empty() ? &txq_data_ : nullptr);
  if (q == nullptr) {
    tx_busy_ = false;
    return;
  }
  tx_busy_ = true;
  // Cut the next packet off the run at the head of the queue.
  TxItem& run = q->front();
  const IbPacket* hdr = run.next;
  tx_pkt_.dst = run.dst;
  tx_pkt_.wire_size = hdr->payload_bytes + run.header_bytes;
  tx_pkt_.id = next_pkt_id_++;
  tx_pkt_.tx_tag = run.tx_tag;
  tx_pkt_.control = run.control;
  // Control packets are responder-generated; they skip the WQE fetch.
  sim::Duration cost = config_.pkt_overhead;
  if (hdr->first && !run.control) cost += config_.wqe_overhead;
  if (--run.left == 0) {
    tx_pkt_.payload = std::shared_ptr<const void>(std::move(run.owner), hdr);
    q->drop_front();
  } else {
    tx_pkt_.payload = std::shared_ptr<const void>(run.owner, hdr);
    ++run.next;
  }
  ++stats_.pkts_tx;
  obs_pkts_tx_->add();
  sim().schedule_fixed(cost, [this] { tx_send(); });
}

void Hca::tx_send() {
  const std::uint32_t tag = tx_pkt_.tx_tag;
  if (!node_.send(std::move(tx_pkt_)) && tag != 0) {
    on_wire_.take(tag - 1);  // buffer drop: the datagram never completes
  }
  tx_drain();
}

void Hca::on_serialized(std::uint32_t tx_tag) {
  WireCompletion w = on_wire_.take(tx_tag - 1);
  w.cq->push_after(config_.cqe_latency, std::move(w.cqe));
}

void Hca::on_node_packet(net::Packet&& p) {
  sim::Simulator& s = sim();
  const sim::Time start =
      std::max(s.now(), rx_busy_) + config_.rx_pkt_overhead;
  rx_busy_ = start;
  ++stats_.pkts_rx;
  obs_pkts_rx_->add();
  rxq_.push_back(
      RxItem{std::static_pointer_cast<const IbPacket>(std::move(p.payload)),
             p.src});
  // An idle receive engine costs the constant per-packet overhead.
  if (start == s.now() + config_.rx_pkt_overhead) {
    s.schedule_fixed(config_.rx_pkt_overhead, [this] { rx_process(); });
  } else {
    s.schedule_at(start, [this] { rx_process(); });
  }
}

void Hca::rx_process() {
  const RxItem item = rxq_.pop_front();
  const Qpn qpn = item.pkt->dst_qpn;
  QpBase* qp = qpn < qp_index_.size() ? qp_index_[qpn] : nullptr;
  if (qp == nullptr) {
    ++stats_.pkts_unroutable;
    obs_pkts_unroutable_->add();
    IBWAN_WARN(sim().now(), "hca", "lid=%u: packet for unknown qpn=%u", lid(),
               qpn);
    return;
  }
  qp->handle_packet(*item.pkt, item.src);
}

}  // namespace ibwan::ib
