// transport.hpp — the delivery-primitive seam between agents and a network.
//
// SRM/CESRM/LMS agents need exactly three delivery primitives (multicast
// flooding, unicast, router-assisted unicast+subcast) plus read-only
// topology knowledge (the shared tree and path delays, which seed the
// oracle-distance mode and RTT normalization). Transport is that seam:
// the simulated net::Network implements it over the discrete-event link
// model, and netio::SocketTransport implements it over real UDP sockets —
// the same agent objects run unchanged behind either backend, which is
// the point of the netio subsystem (one protocol core, two transports).
#pragma once

#include <cstdint>
#include <span>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace cesrm::net {

/// Protocol endpoint attached to a tree node (the source and receivers).
class Agent {
 public:
  virtual ~Agent() = default;
  /// Invoked at the packet's arrival time at this member's node.
  virtual void on_packet(const Packet& pkt) = 0;
  /// Raw-datagram ingress for real-network transports: decode one wire
  /// frame and hand it to on_wire_packet(), counting rejects. The base
  /// class cannot decode (net does not depend on the wire codec), so the
  /// default drops everything; SrmAgent overrides with the hardened codec
  /// ingress. Returns true when the frame was accepted.
  virtual bool on_wire(std::span<const std::uint8_t> /*bytes*/) {
    return false;
  }
  /// Ingress for a wire frame a real-network transport has already
  /// decoded (and annotated, as Network::arrive does): dispatches it
  /// through on_packet(). SrmAgent overrides to count it as decoded wire
  /// input first; its on_wire() ends here too.
  virtual void on_wire_packet(const Packet& pkt) { on_packet(pkt); }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Attaches the protocol agent for member node `node` (must be the root
  /// or a leaf). At most one agent per node.
  virtual void attach(NodeId node, Agent* agent) = 0;

  /// Floods `pkt` over the shared tree from `from`'s attachment point.
  /// The sender does not receive its own packet.
  virtual void multicast(NodeId from, const Packet& pkt) = 0;

  /// Sends `pkt` from `from` to `pkt.dest`.
  virtual void unicast(NodeId from, const Packet& pkt) = 0;

  /// Router-assisted delivery (§3.3): unicast from `from` to `router`,
  /// then subcast from `router` to its entire subtree.
  virtual void unicast_subcast(NodeId from, NodeId router,
                               const Packet& pkt) = 0;

  /// The multicast tree this transport delivers over.
  virtual const MulticastTree& tree() const = 0;

  /// One-way propagation delay along the tree path a → b (sums link
  /// delays; excludes serialization). Used for oracle distances and for
  /// RTT normalization in reports.
  virtual sim::SimTime path_delay(NodeId a, NodeId b) const = 0;

  /// Shared retransmission-delivery leg (§3.3 localization): when
  /// `turning_point` names a real router below the root, unicast the reply
  /// to it and subcast downstream only; otherwise fall back to plain
  /// multicast (a root turning point offers no localization — the subcast
  /// would cover the whole tree while the unicast leg adds crossings).
  /// CESRM (router-assist mode) and LMS share this decision verbatim.
  void send_reply_localized(NodeId from, NodeId turning_point,
                            const Packet& reply) {
    if (turning_point != kInvalidNode && turning_point != tree().root())
      unicast_subcast(from, turning_point, reply);
    else
      multicast(from, reply);
  }
};

}  // namespace cesrm::net
