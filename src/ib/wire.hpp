// IB wire packet descriptor (internal to the ib module and its tests).
//
// One IbPacket is the header of one packet on the wire. RC data headers
// are built a message (or a retransmitted psn range) at a time, into one
// immutable array: the run the HCA cuts into packets (ib/hca.hpp). Each
// net::Packet's payload is an aliasing pointer to its own header, so the
// array is freed when the last of its packets is consumed or dropped.
// Receivers read a header only during handle_packet; what outlives the
// packet (app_payload) they copy out.
//
// Fields are ordered widest first so the struct packs into 96 bytes.
// Its size is host memory only: the bytes a packet occupies on the wire
// come from the k*HeaderBytes constants (ib/verbs.hpp) plus
// payload_bytes, never from sizeof.
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
  /// Message content descriptor (kData, carried on the last packet only).
  std::shared_ptr<const void> app_payload;

  // kData fields (read requests reuse remote_addr and total_length).
  std::uint64_t msg_seq = 0;       // message number within the QP stream
  std::uint64_t psn = 0;           // packet sequence number
  std::uint64_t offset = 0;        // byte offset within the message
  std::uint64_t remote_addr = 0;   // RDMA placement address
  std::uint64_t total_length = 0;  // message length (on first packet)
  std::uint64_t read_wr_id = 0;    // ties read responses to requests

  // kAck / kNak: next PSN the receiver expects (cumulative).
  std::uint64_t ack_psn = 0;

  Qpn dst_qpn = 0;
  Qpn src_qpn = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t imm = 0;
  IbPacketType type = IbPacketType::kData;
  Opcode op = Opcode::kSend;
  bool first = false;
  bool last = false;
  bool has_imm = false;
};
static_assert(sizeof(IbPacket) <= 96, "one IbPacket per packet in flight");

}  // namespace ibwan::ib
