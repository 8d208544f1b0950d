// IB wire packet descriptor (internal to the ib module and its tests).
//
// One IbPacket is the header of one packet on the wire. RC data headers
// are built a message (or a retransmitted psn range) at a time, into one
// immutable array: the run the HCA cuts into packets (ib/hca.hpp). Each
// net::Packet's payload is an aliasing pointer to its own header, so the
// array is freed when the last of its packets is consumed or dropped.
// Receivers read a header only during handle_packet; what outlives the
// packet (app_payload) they copy out.
#pragma once

#include <cstdint>
#include <memory>

#include "ib/verbs.hpp"

namespace ibwan::ib {

enum class IbPacketType : std::uint8_t {
  kData,         // segment of a send / RDMA write / RDMA read response
  kAck,          // cumulative acknowledgement
  kNak,          // out-of-sequence: retransmit from ack_psn
  kRdmaReadReq,  // read request carrying (remote_addr, length)
};

struct IbPacket {
  IbPacketType type = IbPacketType::kData;
  Qpn dst_qpn = 0;
  Qpn src_qpn = 0;

  // kData fields.
  Opcode op = Opcode::kSend;
  std::uint64_t msg_seq = 0;   // message number within the QP stream
  std::uint64_t psn = 0;       // packet sequence number
  std::uint32_t payload_bytes = 0;
  bool first = false;
  bool last = false;
  std::uint64_t offset = 0;       // byte offset within the message
  std::uint64_t remote_addr = 0;  // RDMA placement address
  std::uint64_t total_length = 0; // message length (on first packet)
  std::uint32_t imm = 0;
  bool has_imm = false;
  std::uint64_t read_wr_id = 0;  // ties read/atomic responses to requests
  std::uint64_t atomic_value = 0;  // operand (request) / old value (resp)
  std::uint64_t atomic_compare = 0;
  /// Message content descriptor (carried on the last packet only).
  std::shared_ptr<const void> app_payload;

  // kAck / kNak: next PSN the receiver expects (cumulative).
  std::uint64_t ack_psn = 0;
};

}  // namespace ibwan::ib
