// Wire packets.
//
// The simulator never copies payload bytes; a Packet carries byte *counts*
// plus a shared protocol header object. Endpoints know the concrete header
// type for the traffic they exchange (IB verbs packets everywhere in this
// library, since TCP/IPoIB rides on IB).
//
// A Packet is moved by value through every queue and hop (link, switch,
// Longbow), so it is kept to 48 bytes: the header pointer first, then
// the 64-bit id, then the 32-bit fields, then the flag. It holds no
// callable. A sender that needs to know when its packet clears the
// local wire sets a nonzero `tx_tag` and registers one hook on its
// uplink (Link::set_serialized_hook); the HCA uses that for UD send
// completions.
#pragma once

#include <cstdint>
#include <memory>

namespace ibwan::net {

/// Globally unique node identifier; doubles as the InfiniBand LID.
using NodeId = std::uint32_t;

struct Packet {
  /// Protocol header/body descriptor; type is agreed between endpoints.
  std::shared_ptr<const void> payload;
  /// Unique id for tracing/debugging.
  std::uint64_t id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  /// Total size on the wire, including all protocol headers.
  std::uint32_t wire_size = 0;
  /// Nonzero: the first link reports this tag to its serialized hook
  /// when the packet finishes serializing, then clears it.
  std::uint32_t tx_tag = 0;
  /// Control-plane packet (transport ACK/NAK): ports schedule these ahead
  /// of bulk data so responder traffic is never starved by deep queues.
  bool control = false;

  template <typename T>
  const T& as() const {
    return *static_cast<const T*>(payload.get());
  }
};

static_assert(sizeof(Packet) <= 48, "Packet is moved at every hop");

}  // namespace ibwan::net
