// InfiniBand verbs API surface.
//
// Mirrors the shape of the OFED verbs interface the paper's middleware is
// built on: queue pairs (RC and UD), work requests and completion queues.
// Data is modeled as byte counts; an RDMA address is an opaque number
// the remote side sees with the write (RcQp's write listener).
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace ibwan::ib {

using Lid = net::NodeId;
using Qpn = std::uint32_t;

/// Work-request opcodes (the subset the paper's middleware uses).
enum class Opcode : std::uint8_t {
  kSend,
  kRdmaWrite,
  kRdmaWriteWithImm,
  kRdmaRead,
  /// Internal: responder->requester data stream answering a kRdmaRead.
  kRdmaReadResp,
};

/// Wire header sizes. LRH+BTH+iCRC/vCRC come to ~30 bytes per IB packet;
/// UD adds a 40-byte GRH. These produce the paper's observed peaks:
/// RC 2048/2078 = 985 MB/s, UD 2048/2118 = 967 MB/s over an SDR WAN link.
inline constexpr std::uint32_t kRcHeaderBytes = 30;
inline constexpr std::uint32_t kGrhBytes = 40;
inline constexpr std::uint32_t kUdHeaderBytes = kRcHeaderBytes + kGrhBytes;
inline constexpr std::uint32_t kAckBytes = 30;

/// Remote destination of a UD datagram.
struct UdDest {
  Lid lid = 0;
  Qpn qpn = 0;
};

/// Send-side work request.
struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  /// Payload length in bytes.
  std::uint64_t length = 0;
  /// Target address for RDMA operations (simulated remote VA).
  std::uint64_t remote_addr = 0;
  /// Immediate data, delivered with kSend and kRdmaWriteWithImm.
  std::uint32_t imm = 0;
  /// Opaque message content descriptor, delivered with the completion on
  /// the remote side (stands in for the actual buffer bytes, which the
  /// simulator does not carry). Upper layers put protocol headers here.
  std::shared_ptr<const void> app_payload;
};

/// Receive-side work request.
struct RecvWr {
  std::uint64_t wr_id = 0;
  std::uint64_t max_length = 0;
};

enum class CqeType : std::uint8_t {
  kSendComplete,      // send/RDMA-write WQE finished (acked for RC)
  kRecvComplete,      // incoming send consumed a receive WQE
  kRecvRdmaImm,       // incoming RDMA-write-with-imm consumed a receive WQE
  kRdmaReadComplete,  // RDMA read data fully arrived at the requester
};

/// Completion queue entry.
struct Cqe {
  CqeType type = CqeType::kSendComplete;
  std::uint64_t wr_id = 0;
  Qpn qpn = 0;  // local QP that completed
  std::uint64_t byte_len = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  /// Source of a UD datagram (valid for UD kRecvComplete only).
  Lid src_lid = 0;
  Qpn src_qpn = 0;
  bool success = true;
  /// The sender's SendWr::app_payload, if any.
  std::shared_ptr<const void> app_payload;

  template <typename T>
  const T& payload_as() const {
    return *static_cast<const T*>(app_payload.get());
  }
};

/// Per-HCA tunables. Defaults are calibrated in core/calibration.hpp to
/// land near the paper's zero-delay absolute numbers; see DESIGN.md §6.
struct HcaConfig {
  /// IB path MTU (payload bytes per packet).
  std::uint32_t mtu = 2048;
  /// RC transport window: messages transmitted but not yet fully acked.
  /// This is the bound the paper identifies ("limits the number of
  /// messages that can be in flight to a maximum supported window size").
  int rc_max_inflight_msgs = 16;
  /// Outstanding RDMA reads per QP (IB max_rd_atomic).
  int rc_max_outstanding_reads = 4;
  /// Sender-side work-request processing cost (doorbell + WQE fetch).
  sim::Duration wqe_overhead = 250;
  /// Sender-side per-packet engine cost.
  sim::Duration pkt_overhead = 30;
  /// Receiver-side per-packet processing cost.
  sim::Duration rx_pkt_overhead = 120;
  /// Extra receive path cost to match and consume a receive WQE
  /// (channel semantics); RDMA-write completion detection is cheaper,
  /// which is why RDMA wins the Figure 3 latency comparison.
  sim::Duration recv_match_overhead = 250;
  sim::Duration rdma_detect_overhead = 80;
  /// Completion delivery cost (CQE write + poll detection).
  sim::Duration cqe_latency = 300;
  /// Receiver acks at least every this many packets within a message
  /// (plus always on the last packet of a message).
  std::uint32_t ack_interval_pkts = 64;
  /// Retransmission timeout for tail loss (NAKs handle the common
  /// case). Must exceed the worst-case WAN round trip: IB local ack
  /// timeouts are configured in the hundreds of milliseconds.
  sim::Duration rto = 200 * sim::kMillisecond;
  /// Consecutive unproductive retries (RTO fires with no ack progress,
  /// or unanswered RDMA-read requests) before the QP transitions to the
  /// error state and flushes outstanding WQEs with success=false — the
  /// IB retry_cnt semantics. Without the bound, a severed WAN link
  /// would retransmit forever and the requester would hang.
  int rc_retry_count = 7;
};

}  // namespace ibwan::ib
