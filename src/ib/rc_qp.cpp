#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "sim/log.hpp"

namespace ibwan::ib {

namespace {
/// Packets needed for a message of `len` payload bytes (min 1: zero-length
/// messages still occupy one packet on the wire).
std::uint64_t packet_count(std::uint64_t len, std::uint32_t mtu) {
  return len == 0 ? 1 : (len + mtu - 1) / mtu;
}
}  // namespace

RcQp::RcQp(Hca& hca, Qpn qpn, Cq& send_cq, Cq& recv_cq)
    : QpBase(hca, qpn, send_cq, recv_cq) {
  auto& m = hca_.sim().metrics();
  const std::string scope = "node" + std::to_string(hca_.lid()) + "/ib.rc";
  using sim::MetricUnit;
  obs_.msgs_sent = &m.counter(scope, "msgs_sent", MetricUnit::kMessages);
  obs_.bytes_sent = &m.counter(scope, "bytes_sent", MetricUnit::kBytes);
  obs_.pkts_retransmitted =
      &m.counter(scope, "pkts_retransmitted", MetricUnit::kPackets);
  obs_.acks_sent = &m.counter(scope, "acks_sent", MetricUnit::kPackets);
  obs_.naks_sent = &m.counter(scope, "naks_sent", MetricUnit::kPackets);
  obs_.rto_fires = &m.counter(scope, "rto_fires", MetricUnit::kCount);
  obs_.retries_exhausted =
      &m.counter(scope, "retries_exhausted", MetricUnit::kCount);
  obs_.flushed_wqes =
      &m.counter(scope, "flushed_wqes", MetricUnit::kMessages);
  obs_.send_completions =
      &m.counter(scope, "send_completions", MetricUnit::kMessages);
  obs_.window_stalls =
      &m.counter(scope, "window_stalls", MetricUnit::kCount);
  obs_.window_stall_ns =
      &m.counter(scope, "window_stall_ns", MetricUnit::kNanoseconds);
  obs_.outstanding_wqes =
      &m.gauge(scope, "outstanding_wqes", MetricUnit::kMessages);
  obs_.ack_ns = &m.histogram(scope, "ack_ns", MetricUnit::kNanoseconds);
  std::snprintf(trace_tag_, sizeof(trace_tag_), "rc-qp%u", qpn_);
}

RcQp::~RcQp() {
  disarm_rto();
  for (auto& pr : pending_reads_) hca_.sim().cancel(pr.retry_timer);
}

void RcQp::connect(Lid remote_lid, Qpn remote_qpn) {
  assert(remote_qpn != 0 && "QPN 0 is reserved");
  remote_lid_ = remote_lid;
  remote_qpn_ = remote_qpn;
}

void RcQp::post_send(const SendWr& wr) {
  assert(connected() && "post_send on unconnected RC QP");
  if (error_) {
    // Error state: complete immediately, flushed.
    flush_wqe(wr.opcode == Opcode::kRdmaRead ? CqeType::kRdmaReadComplete
                                             : CqeType::kSendComplete,
              wr);
    return;
  }
  if (wr.opcode == Opcode::kRdmaRead) {
    issue_read(wr);
    return;
  }
  sq_.push_back(wr);
  try_transmit();
}

void RcQp::post_recv(const RecvWr& wr) {
  rq_.push_back(wr);
  match_receives();
}

// ---------------------------------------------------------------------------
// Requester side.
// ---------------------------------------------------------------------------

void RcQp::try_transmit() {
  const int window = hca_.config().rc_max_inflight_msgs;
  while (static_cast<int>(inflight_.size()) < window && !sq_.empty()) {
    if (win_stalled_) {
      // The window just reopened; account the time the SQ sat blocked.
      win_stalled_ = false;
      const sim::Duration stalled = hca_.sim().now() - win_stall_since_;
      obs_.window_stall_ns->add(stalled);
      hca_.sim().recorder().record(hca_.sim().now(),
                                   sim::TraceKind::kWindowResume, trace_tag_,
                                   stalled);
    }
    SendWr wr = sq_.front();
    sq_.pop_front();
    start_message(wr, /*internal=*/false, /*read_wr_id=*/0);
  }
  if (!win_stalled_ && !sq_.empty() &&
      static_cast<int>(inflight_.size()) >= window) {
    win_stalled_ = true;
    win_stall_since_ = hca_.sim().now();
    obs_.window_stalls->add();
    hca_.sim().recorder().record(hca_.sim().now(),
                                 sim::TraceKind::kWindowStall, trace_tag_,
                                 sq_.size(), inflight_.size());
  }
  obs_.outstanding_wqes->set(static_cast<std::int64_t>(inflight_.size()));
}

void RcQp::start_message(const SendWr& wr, bool internal,
                         std::uint64_t read_wr_id) {
  const std::uint32_t mtu = hca_.config().mtu;
  const std::uint64_t pkts = packet_count(wr.length, mtu);
  InflightMsg m{.wr = wr,
                .msg_seq = next_msg_seq_++,
                .start_psn = next_psn_,
                .end_psn = next_psn_ + pkts - 1,
                .internal = internal,
                .sent_at = hca_.sim().now()};
  next_psn_ += pkts;
  inflight_.push_back(m);
  ++stats_.msgs_sent;
  stats_.bytes_sent += wr.length;
  obs_.msgs_sent->add();
  obs_.bytes_sent->add(wr.length);
  emit_packets(m, m.start_psn, read_wr_id);
  arm_rto();
}

void RcQp::emit_packets(const InflightMsg& m, std::uint64_t from_psn,
                        std::uint64_t read_wr_id) {
  // One run: the headers of psn from_psn..end_psn in a single array,
  // which the HCA cuts into packets one engine turn at a time.
  const std::uint32_t mtu = hca_.config().mtu;
  const auto n = static_cast<std::uint32_t>(m.end_psn - from_psn + 1);
  std::shared_ptr<IbPacket[]> run = std::make_shared<IbPacket[]>(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t psn = from_psn + i;
    const std::uint64_t offset = (psn - m.start_psn) * mtu;
    IbPacket& pkt = run[i];
    pkt.type = IbPacketType::kData;
    pkt.dst_qpn = remote_qpn_;
    pkt.src_qpn = qpn_;
    pkt.op = m.wr.opcode;
    pkt.msg_seq = m.msg_seq;
    pkt.psn = psn;
    pkt.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(mtu, m.wr.length - offset));
    pkt.first = (psn == m.start_psn);
    pkt.last = (psn == m.end_psn);
    pkt.offset = offset;
    pkt.remote_addr = m.wr.remote_addr;
    pkt.total_length = m.wr.length;
    pkt.imm = m.wr.imm;
    pkt.has_imm = (m.wr.opcode == Opcode::kSend ||
                   m.wr.opcode == Opcode::kRdmaWriteWithImm);
    pkt.read_wr_id = read_wr_id;
  }
  run[n - 1].app_payload = m.wr.app_payload;  // psn end_psn carries it
  const IbPacket* head = run.get();
  hca_.transmit(remote_lid_,
                std::shared_ptr<const IbPacket>(std::move(run), head), n,
                kRcHeaderBytes);
}

void RcQp::handle_ack(std::uint64_t ack_psn) {
  if (ack_psn <= snd_una_) return;  // stale
  snd_una_ = ack_psn;
  rto_retries_ = 0;  // the wire is moving again
  bool completed_any = false;
  std::uint64_t completed_msgs = 0;
  while (!inflight_.empty() && inflight_.front().end_psn < ack_psn) {
    const InflightMsg m = inflight_.front();
    inflight_.pop_front();
    completed_any = true;
    ++completed_msgs;
    obs_.ack_ns->observe(hca_.sim().now() - m.sent_at);
    if (m.internal) {
      // A fully-acked read response; allow future requests for this id.
      active_read_resps_.erase(m.wr.wr_id);
    } else {
      ++stats_.send_completions;
      obs_.send_completions->add();
      send_cq_->push_after(hca_.config().cqe_latency,
                           Cqe{.type = CqeType::kSendComplete,
                               .wr_id = m.wr.wr_id,
                               .qpn = qpn_,
                               .byte_len = m.wr.length});
    }
  }
  if (sim::FlightRecorder& fr = hca_.sim().recorder(); fr.armed())
    fr.record(hca_.sim().now(), sim::TraceKind::kAckRecv, trace_tag_,
              ack_psn, completed_msgs);
  if (completed_any) {
    // Ack progress: restart the retransmission clock.
    disarm_rto();
    arm_rto();
    try_transmit();
  }
}

void RcQp::retransmit_from(std::uint64_t psn) {
  for (const InflightMsg& m : inflight_) {
    if (m.end_psn < psn) continue;
    const std::uint64_t from = std::max(psn, m.start_psn);
    stats_.pkts_retransmitted += m.end_psn - from + 1;
    obs_.pkts_retransmitted->add(m.end_psn - from + 1);
    hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kRetransmit,
                                 trace_tag_, from, next_psn_);
    // A read response must re-carry its correlation id.
    emit_packets(m, from,
                 m.wr.opcode == Opcode::kRdmaReadResp ? m.wr.wr_id : 0);
  }
}

void RcQp::arm_rto() {
  if (rto_armed_ || inflight_.empty()) return;
  rto_armed_ = true;
  rto_timer_ = hca_.sim().schedule_fixed(hca_.config().rto, [this] {
    rto_armed_ = false;
    if (inflight_.empty()) return;
    ++stats_.rto_fires;
    obs_.rto_fires->add();
    hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kRtoFire,
                                 trace_tag_, snd_una_);
    if (++rto_retries_ > hca_.config().rc_retry_count) {
      enter_error();
      return;
    }
    IBWAN_WARN(hca_.sim().now(), "rc-qp", "qpn=%u RTO, resend from psn=%llu",
               qpn_, static_cast<unsigned long long>(snd_una_));
    retransmit_from(snd_una_);
    arm_rto();
  });
}

void RcQp::disarm_rto() {
  if (!rto_armed_) return;
  hca_.sim().cancel(rto_timer_);
  rto_armed_ = false;
}

void RcQp::flush_wqe(CqeType type, const SendWr& wr) {
  ++stats_.flushed_wqes;
  obs_.flushed_wqes->add();
  send_cq_->push_after(hca_.config().cqe_latency, Cqe{.type = type,
                                                      .wr_id = wr.wr_id,
                                                      .qpn = qpn_,
                                                      .byte_len = wr.length,
                                                      .success = false});
}

void RcQp::enter_error() {
  if (error_) return;
  error_ = true;
  ++stats_.retries_exhausted;
  obs_.retries_exhausted->add();
  const std::uint64_t outstanding = inflight_.size() + sq_.size() +
                                    pending_reads_.size() +
                                    read_queue_.size();
  hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kQpError,
                               trace_tag_, snd_una_, outstanding);
  IBWAN_WARN(hca_.sim().now(), "rc-qp",
             "qpn=%u retry count exhausted, flushing %llu WQEs", qpn_,
             static_cast<unsigned long long>(outstanding));
  disarm_rto();
  // Flush every requester-side WQE with an error completion, oldest
  // first. Internal messages never complete locally.
  for (const InflightMsg& m : inflight_) {
    if (m.internal) {
      active_read_resps_.erase(m.wr.wr_id);
      continue;
    }
    flush_wqe(CqeType::kSendComplete, m.wr);
  }
  inflight_.clear();
  for (const SendWr& wr : sq_) flush_wqe(CqeType::kSendComplete, wr);
  sq_.clear();
  for (const PendingRead& pr : pending_reads_) {
    hca_.sim().cancel(pr.retry_timer);
    flush_wqe(CqeType::kRdmaReadComplete, pr.wr);
  }
  pending_reads_.clear();
  for (const SendWr& wr : read_queue_) {
    flush_wqe(CqeType::kRdmaReadComplete, wr);
  }
  read_queue_.clear();
  if (win_stalled_) {
    win_stalled_ = false;
    obs_.window_stall_ns->add(hca_.sim().now() - win_stall_since_);
  }
  obs_.outstanding_wqes->set(0);
}

// ---------------------------------------------------------------------------
// RDMA read (requester).
// ---------------------------------------------------------------------------

void RcQp::issue_read(const SendWr& wr) {
  if (static_cast<int>(pending_reads_.size()) <
      hca_.config().rc_max_outstanding_reads) {
    send_read_request(wr, /*retries=*/0);
  } else {
    read_queue_.push_back(wr);
  }
}

void RcQp::send_read_request(const SendWr& wr, int retries) {
  auto pkt = std::make_shared<IbPacket>();
  pkt->type = IbPacketType::kRdmaReadReq;
  pkt->dst_qpn = remote_qpn_;
  pkt->src_qpn = qpn_;
  pkt->remote_addr = wr.remote_addr;
  pkt->total_length = wr.length;
  pkt->read_wr_id = wr.wr_id;
  pkt->first = pkt->last = true;  // a one-packet WQE: pays the WQE fetch
  hca_.transmit(remote_lid_, std::move(pkt), 1, kRcHeaderBytes);
  // Requests are not covered by the PSN stream; a per-read timer retries
  // if the response never starts (request lost on the wire), up to the
  // QP retry budget — then the whole QP faults.
  PendingRead pr{.wr = wr, .retry_timer = 0, .retries = retries};
  pr.retry_timer = hca_.sim().schedule(hca_.config().rto, [this, wr,
                                                           retries] {
    for (auto& p : pending_reads_) {
      if (p.wr.wr_id == wr.wr_id) {
        if (retries + 1 > hca_.config().rc_retry_count) {
          enter_error();
          return;
        }
        IBWAN_WARN(hca_.sim().now(), "rc-qp", "qpn=%u read retry wr=%llu",
                   qpn_, static_cast<unsigned long long>(wr.wr_id));
        // Re-send the request and re-arm by replacing the entry.
        p.retry_timer = 0;
        pending_reads_.erase(
            std::find_if(pending_reads_.begin(), pending_reads_.end(),
                         [&](const PendingRead& q) {
                           return q.wr.wr_id == wr.wr_id;
                         }));
        send_read_request(wr, retries + 1);
        return;
      }
    }
  });
  pending_reads_.push_back(pr);
}

// ---------------------------------------------------------------------------
// Responder / receiver side.
// ---------------------------------------------------------------------------

void RcQp::handle_packet(const IbPacket& pkt, Lid /*src_lid*/) {
  // An errored QP neither sends nor receives (IB error-state semantics);
  // late acks and stale data are dropped on the floor.
  if (error_) return;
  switch (pkt.type) {
    case IbPacketType::kAck:
      handle_ack(pkt.ack_psn);
      return;
    case IbPacketType::kNak:
      handle_ack(pkt.ack_psn);
      retransmit_from(pkt.ack_psn);
      return;
    case IbPacketType::kRdmaReadReq: {
      // Duplicate requests (retry raced with a served response) are
      // ignored if a response stream is already active for this id.
      if (active_read_resps_.count(pkt.read_wr_id) != 0) return;
      active_read_resps_.insert(pkt.read_wr_id);
      SendWr resp{.wr_id = pkt.read_wr_id,
                  .opcode = Opcode::kRdmaReadResp,
                  .length = pkt.total_length,
                  .remote_addr = pkt.remote_addr};
      start_message(resp, /*internal=*/true, pkt.read_wr_id);
      return;
    }
    case IbPacketType::kData:
      break;
  }

  // --- Reliable in-order data stream ---
  if (pkt.psn < expected_psn_) {
    // Duplicate from go-back-N: re-acknowledge so the sender advances.
    send_ack(IbPacketType::kAck);
    return;
  }
  if (pkt.psn > expected_psn_) {
    if (!nak_outstanding_) {
      nak_outstanding_ = true;
      ++stats_.naks_sent;
      obs_.naks_sent->add();
      hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kNakSend,
                                   trace_tag_, expected_psn_, pkt.psn);
      send_ack(IbPacketType::kNak);
    }
    return;
  }
  nak_outstanding_ = false;
  ++expected_psn_;
  ++pkts_since_ack_;

  if (pkt.first) {
    assembling_ = IncomingMsg{.msg_seq = pkt.msg_seq,
                              .op = pkt.op,
                              .total_length = pkt.total_length,
                              .received = 0,
                              .remote_addr = pkt.remote_addr,
                              .imm = pkt.imm,
                              .has_imm = pkt.has_imm,
                              .read_wr_id = pkt.read_wr_id};
  }
  assert(assembling_.has_value() && "mid-message packet with no assembly");
  assembling_->received += pkt.payload_bytes;

  if (pkt.last) {
    assert(assembling_->received == assembling_->total_length);
    assembling_->app_payload = pkt.app_payload;
    const IncomingMsg m = *assembling_;
    assembling_.reset();
    deliver_message(m);
    pkts_since_ack_ = 0;
    send_ack(IbPacketType::kAck);
  } else if (pkts_since_ack_ >= hca_.config().ack_interval_pkts) {
    pkts_since_ack_ = 0;
    send_ack(IbPacketType::kAck);
  }
}

void RcQp::send_ack(IbPacketType type) {
  auto pkt = std::make_shared<IbPacket>();
  pkt->type = type;
  pkt->dst_qpn = remote_qpn_;
  pkt->src_qpn = qpn_;
  pkt->ack_psn = expected_psn_;
  ++stats_.acks_sent;
  obs_.acks_sent->add();
  if (sim::FlightRecorder& fr = hca_.sim().recorder(); fr.armed())
    fr.record(hca_.sim().now(), sim::TraceKind::kAckSend, trace_tag_,
              expected_psn_);
  hca_.transmit(remote_lid_, std::move(pkt), 1, kAckBytes,
                /*control=*/true);
}

void RcQp::deliver_message(const IncomingMsg& m) {
  ++stats_.msgs_received;
  stats_.bytes_received += m.total_length;
  const HcaConfig& cfg = hca_.config();
  switch (m.op) {
    case Opcode::kSend:
    case Opcode::kRdmaWriteWithImm:
      if (m.op == Opcode::kRdmaWriteWithImm && rdma_listener_) {
        hca_.sim().schedule(cfg.rdma_detect_overhead,
                            [cb = rdma_listener_, m] {
                              cb(m.remote_addr, m.total_length, true);
                            });
      }
      unclaimed_.push_back(m);
      match_receives();
      break;
    case Opcode::kRdmaWrite:
      if (rdma_listener_) {
        hca_.sim().schedule(cfg.rdma_detect_overhead,
                            [cb = rdma_listener_, m] {
                              cb(m.remote_addr, m.total_length, false);
                            });
      }
      break;
    case Opcode::kRdmaReadResp: {
      // Requester side: a read we issued has fully landed.
      auto it = std::find_if(
          pending_reads_.begin(), pending_reads_.end(),
          [&](const PendingRead& p) { return p.wr.wr_id == m.read_wr_id; });
      if (it == pending_reads_.end()) return;  // duplicate response
      hca_.sim().cancel(it->retry_timer);
      const SendWr wr = it->wr;
      pending_reads_.erase(it);
      send_cq_->push_after(cfg.rdma_detect_overhead + cfg.cqe_latency,
                           Cqe{.type = CqeType::kRdmaReadComplete,
                               .wr_id = wr.wr_id,
                               .qpn = qpn_,
                               .byte_len = wr.length});
      if (!read_queue_.empty()) {
        SendWr next = read_queue_.front();
        read_queue_.pop_front();
        send_read_request(next, /*retries=*/0);
      }
      break;
    }
    case Opcode::kRdmaRead:
      assert(false && "kRdmaRead never appears as a data stream opcode");
      break;
  }
}

void RcQp::match_receives() {
  const HcaConfig& cfg = hca_.config();
  while (!unclaimed_.empty() && !rq_.empty()) {
    const IncomingMsg m = unclaimed_.front();
    unclaimed_.pop_front();
    const RecvWr r = rq_.front();
    rq_.pop_front();
    recv_cq_->push_after(cfg.recv_match_overhead + cfg.cqe_latency,
                         Cqe{.type = m.op == Opcode::kSend
                                         ? CqeType::kRecvComplete
                                         : CqeType::kRecvRdmaImm,
                             .wr_id = r.wr_id,
                             .qpn = qpn_,
                             .byte_len = m.total_length,
                             .imm = m.imm,
                             .has_imm = m.has_imm,
                             .src_qpn = remote_qpn_,
                             .app_payload = m.app_payload});
  }
}

}  // namespace ibwan::ib
