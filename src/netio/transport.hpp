// transport.hpp — net::Transport over real UDP sockets.
//
// One SocketTransport serves one protocol agent (one group member). It
// owns a multicast-group socket (bound to the shared group:port, joined
// on the loopback interface) and a unicast socket (bound to an ephemeral
// port, doubling as the multicast egress), speaks the canonical wire
// codec on every datagram, and implements the three Transport delivery
// primitives the agents already use against the simulated net::Network:
//
//  * multicast   → one datagram to the group; every member's group socket
//    receives a copy (IP_MULTICAST_LOOP), the sender filters its own by
//    the frame's sender field — matching Network::multicast's
//    "sender does not receive its own packet";
//  * unicast     → one datagram to the destination's unicast endpoint
//    from the AddressPlan;
//  * unicast_subcast → emulated as one unicast datagram per member in the
//    turning-point router's subtree (real router assist needs routers;
//    a loopback host has none). Like the simulated subcast, a sender
//    inside the subtree receives its own copy — the self-filter applies
//    only to group traffic.
//
// Ingress parity with the simulator, in order. A delivered frame is
// decoded exactly once; the agent receives the decoded packet.
//  1. self-filter (group socket only): wire::peek_sender reads the sender
//     field of a datagram whose fixed header is one whole v1 frame; when
//     it names this member, the datagram is its own multicast looped back
//     and is dropped undecoded. A datagram that fails the peek goes on;
//  2. decode (wire::decode_packet_exact). Malformed datagrams are handed
//     to SrmAgent::on_wire untouched so the hardened-ingress counters and
//     trace events fire exactly as they would for an in-memory frame;
//     well-formed frames naming a node outside this member's tree are
//     counted and dropped — the simulator never produces them;
//  3. LossShim verdict over the sender→receiver tree path: drop, or
//     delay = path delay + jitter;
//  4. turning-point annotation: multicast reply arrivals carry
//     lca(sender, receiver), set on the decoded packet — the
//     router-assist annotation Network::arrive applies (§3.3);
//  5. the packet is scheduled onto the reactor's simulator at its delay,
//     so sim::Timer-based suppression sees network-shaped arrival times,
//     and reaches the agent through net::Agent::on_wire_packet.
//
// Threading: a SocketTransport is confined to its agent's reactor thread
// (TX happens inside agent callbacks, RX inside the reactor's fd
// handlers). The AddressPlan and LossShim are shared read-only.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "netio/reactor.hpp"
#include "netio/shim.hpp"
#include "netio/socket.hpp"

namespace cesrm::netio {

/// 239.192.58.1 — an organization-local scope group for loopback runs.
inline constexpr std::uint32_t kDefaultMcastGroup = 0xEFC03A01;

/// Where every member of a run can be reached. Built in two phases by the
/// harness: the shared group/interface first, then each member's actual
/// (ephemeral) unicast endpoint as its transport binds — all before any
/// reactor thread starts, so the run phase reads it immutably.
struct AddressPlan {
  std::uint32_t mcast_addr = kDefaultMcastGroup;
  std::uint16_t mcast_port = 0;  ///< must be set (the one fixed port)
  std::uint32_t iface_addr = kLoopbackAddr;
  /// Indexed by NodeId; port 0 = not a member (routers).
  std::vector<Endpoint> unicast;
};

/// Per-transport datagram accounting (single-threaded; read after join).
struct SocketStats {
  std::uint64_t datagrams_sent = 0;
  /// Transient sendto refusals (EAGAIN/ENOBUFS): the datagram is lost,
  /// exactly like congestion loss on a real path — the protocol recovers.
  std::uint64_t send_failures = 0;
  std::uint64_t datagrams_received = 0;
  /// This member's own multicast, looped back to its group socket and
  /// dropped before decoding.
  std::uint64_t self_filtered = 0;
  /// Malformed datagrams (still forwarded to the agent's hardened ingress,
  /// where they are counted per DecodeErrorKind and dropped).
  std::uint64_t decode_failed = 0;
  /// Well-formed frames naming a node id outside this member's tree;
  /// dropped before the shim and the agent ever see them.
  std::uint64_t out_of_tree = 0;
  std::uint64_t shim_dropped = 0;
  std::uint64_t delivered = 0;
};

class SocketTransport final : public net::Transport {
 public:
  /// Binds both sockets and registers RX handlers with `reactor`. `self`
  /// must be a member node (root or leaf). `plan->mcast_port` must be set;
  /// the caller records unicast_endpoint() into plan->unicast[self] before
  /// any reactor runs. All references must outlive the transport.
  SocketTransport(Reactor& reactor, const net::MulticastTree& tree,
                  const AddressPlan& plan, const LossShim& shim,
                  net::NodeId self);

  /// The unicast socket's actual bound endpoint (ephemeral port).
  Endpoint unicast_endpoint() const { return ucast_sock_.local_endpoint(); }

  // net::Transport
  void attach(net::NodeId node, net::Agent* agent) override;
  void multicast(net::NodeId from, const net::Packet& pkt) override;
  void unicast(net::NodeId from, const net::Packet& pkt) override;
  void unicast_subcast(net::NodeId from, net::NodeId router,
                       const net::Packet& pkt) override;
  const net::MulticastTree& tree() const override { return tree_; }
  /// hop distance × the shim's link_delay — the geometry the shim's
  /// arrival delays enforce, so oracle distances and RTT normalization
  /// agree with what the wire actually does.
  sim::SimTime path_delay(net::NodeId a, net::NodeId b) const override;

  net::NodeId self() const { return self_; }
  const SocketStats& stats() const { return stats_; }
  /// Datagram accounting in the simulator's CrossingStats shape so the
  /// existing reports apply. Unit difference: the simulator counts link
  /// crossings, a socket backend counts datagrams (multicast = 1 per
  /// send, not one per tree edge); `wire_bytes` counts encoded egress
  /// frame bytes; `dropped` counts this member's shim RX drops.
  const net::CrossingStats& crossings() const { return crossings_; }

 private:
  enum class TxMode { kMulticast, kUnicast, kSubcast };

  void send_frame(const Endpoint& dest, const net::Packet& pkt, TxMode mode);
  void drain(UdpSocket& sock, bool from_group);
  void handle_datagram(std::span<const std::uint8_t> bytes, bool from_group);

  Reactor& reactor_;
  const net::MulticastTree& tree_;
  const AddressPlan& plan_;
  const LossShim& shim_;
  const net::NodeId self_;
  net::Agent* agent_ = nullptr;
  UdpSocket mcast_sock_;  ///< group RX
  UdpSocket ucast_sock_;  ///< unicast RX/TX + multicast egress
  std::vector<std::uint8_t> tx_frame_;  ///< egress encoding, reused per send
  SocketStats stats_;
  net::CrossingStats crossings_;
};

}  // namespace cesrm::netio
