#include "netio/transport.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/check.hpp"

namespace cesrm::netio {

namespace {
/// UDP's payload ceiling; session frames grow with group size but a
/// loopback run's stay far below this.
constexpr std::size_t kMaxDatagram = 65535;

/// True when every node id `pkt` names lies in `tree`. kInvalidNode passes:
/// the decoder already rejected it wherever the packet type forbids it.
bool names_tree_nodes(const net::Packet& pkt, const net::MulticastTree& tree) {
  const auto ok = [size = tree.size()](net::NodeId v) {
    return v == net::kInvalidNode ||
           (v >= 0 && static_cast<std::size_t>(v) < size);
  };
  if (!ok(pkt.source) || !ok(pkt.sender) || !ok(pkt.dest) ||
      !ok(pkt.ann.requestor) || !ok(pkt.ann.replier) ||
      !ok(pkt.ann.turning_point))
    return false;
  if (pkt.session) {
    for (const net::StreamAdvert& a : pkt.session->streams)
      if (!ok(a.source)) return false;
    for (const net::SessionEcho& e : pkt.session->echoes)
      if (!ok(e.peer)) return false;
  }
  return true;
}
}  // namespace

SocketTransport::SocketTransport(Reactor& reactor,
                                 const net::MulticastTree& tree,
                                 const AddressPlan& plan, const LossShim& shim,
                                 net::NodeId self)
    : reactor_(reactor), tree_(tree), plan_(plan), shim_(shim), self_(self) {
  CESRM_CHECK_MSG(tree_.is_root(self) || tree_.is_leaf(self),
                  "netio member " << self << " must be the root or a leaf");
  CESRM_CHECK_MSG(plan_.mcast_port != 0,
                  "AddressPlan::mcast_port is unset (valid: any free UDP "
                  "port 1024-65535, e.g. --mcast-port 47500)");
  // Binding the group socket to the group address (not INADDR_ANY) keeps
  // stray unicast to the shared port out; SO_REUSEADDR lets all members'
  // group sockets coexist on it.
  mcast_sock_.bind(Endpoint{plan_.mcast_addr, plan_.mcast_port},
                   "--mcast-port");
  mcast_sock_.join_group(plan_.mcast_addr, plan_.iface_addr);
  ucast_sock_.bind(Endpoint{plan_.iface_addr, 0});
  ucast_sock_.set_multicast_egress(plan_.iface_addr, /*loop=*/true);
  reactor_.add_readable(mcast_sock_.fd(),
                        [this] { drain(mcast_sock_, /*from_group=*/true); });
  reactor_.add_readable(ucast_sock_.fd(),
                        [this] { drain(ucast_sock_, /*from_group=*/false); });
}

void SocketTransport::attach(net::NodeId node, net::Agent* agent) {
  CESRM_CHECK_MSG(node == self_, "SocketTransport for member "
                                     << self_ << " cannot attach node "
                                     << node << " (one transport per member)");
  CESRM_CHECK(agent_ == nullptr);
  agent_ = agent;
}

void SocketTransport::send_frame(const Endpoint& dest, const net::Packet& pkt,
                                 TxMode mode) {
  const std::size_t frame_bytes =
      encoder_.add(pkt);  // tallies per-type frame counts and wire bytes
  const std::vector<std::uint8_t> frame = encoder_.take();
  const auto type_idx = static_cast<std::size_t>(pkt.type);
  switch (mode) {
    case TxMode::kMulticast: ++crossings_.multicast[type_idx]; break;
    case TxMode::kUnicast: ++crossings_.unicast[type_idx]; break;
    case TxMode::kSubcast: ++crossings_.subcast[type_idx]; break;
  }
  crossings_.wire_bytes[type_idx] += frame_bytes;
  if (ucast_sock_.send_to(dest, frame))
    ++stats_.datagrams_sent;
  else
    ++stats_.send_failures;
}

void SocketTransport::multicast(net::NodeId from, const net::Packet& pkt) {
  CESRM_CHECK(from == self_);
  send_frame(Endpoint{plan_.mcast_addr, plan_.mcast_port}, pkt,
             TxMode::kMulticast);
}

void SocketTransport::unicast(net::NodeId from, const net::Packet& pkt) {
  CESRM_CHECK(from == self_);
  CESRM_CHECK(pkt.dest >= 0 &&
              static_cast<std::size_t>(pkt.dest) < plan_.unicast.size());
  const Endpoint dest = plan_.unicast[static_cast<std::size_t>(pkt.dest)];
  CESRM_CHECK_MSG(dest.port != 0, "node " << pkt.dest
                                          << " has no unicast endpoint "
                                             "(routers are not members)");
  send_frame(dest, pkt, TxMode::kUnicast);
}

void SocketTransport::unicast_subcast(net::NodeId from, net::NodeId router,
                                      const net::Packet& pkt) {
  CESRM_CHECK(from == self_);
  CESRM_CHECK(router >= 0 &&
              static_cast<std::size_t>(router) < tree_.size());
  // No real routers on loopback: the unicast leg + downstream subcast
  // collapse to one datagram per member of the router's subtree. The
  // shim charges each the sender→member path, the closest loopback
  // analogue of sender→router→member.
  for (net::NodeId member : tree_.subtree_receivers(router))
    send_frame(plan_.unicast[static_cast<std::size_t>(member)], pkt,
               TxMode::kSubcast);
}

sim::SimTime SocketTransport::path_delay(net::NodeId a, net::NodeId b) const {
  return shim_.config().link_delay *
         static_cast<std::int64_t>(tree_.hop_distance(a, b));
}

void SocketTransport::drain(UdpSocket& sock, bool from_group) {
  std::array<std::uint8_t, kMaxDatagram> buf;
  while (const auto n = sock.recv_from(buf)) {
    ++stats_.datagrams_received;
    stats_.bytes_received += *n;
    handle_datagram(std::span<const std::uint8_t>(buf.data(), *n),
                    from_group);
  }
}

void SocketTransport::handle_datagram(std::span<const std::uint8_t> bytes,
                                      bool from_group) {
  if (!agent_) return;
  net::Packet pkt;
  if (wire::decode_packet_exact(bytes, &pkt)) {
    // Malformed: let the agent's hardened ingress count and drop it with
    // the exact same verdict an in-memory decode would produce.
    ++stats_.decode_failed;
    agent_->on_wire(bytes);
    return;
  }
  if (!names_tree_nodes(pkt, tree_)) {
    // Well-formed but foreign: its node ids would index past the tree
    // tables the shim and the agent consult.
    ++stats_.out_of_tree;
    return;
  }
  if (from_group && pkt.sender == self_) {
    ++stats_.self_filtered;
    return;
  }
  const sim::SimTime now = reactor_.clock().now();
  const LossShim::Verdict verdict =
      shim_.crossing(pkt, pkt.sender, self_, now);
  if (verdict.drop) {
    ++stats_.shim_dropped;
    ++crossings_.dropped[static_cast<std::size_t>(pkt.type)];
    return;
  }
  std::vector<std::uint8_t> frame(bytes.begin(), bytes.end());
  if (from_group && (pkt.type == net::PacketType::kReply ||
                     pkt.type == net::PacketType::kExpReply)) {
    // Router-assist parity with Network::arrive: multicast reply arrivals
    // carry this recipient's turning-point router (§3.3).
    pkt.ann.turning_point = tree_.lca(pkt.sender, self_);
    frame = wire::encode_packet(pkt);
  }
  ++stats_.delivered;
  net::Agent* agent = agent_;
  reactor_.sim().schedule_at(
      std::max(now + verdict.delay, reactor_.sim().now()),
      [agent, frame = std::move(frame)] {
        agent->on_wire(frame);
      });
}

}  // namespace cesrm::netio
