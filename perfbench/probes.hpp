// probes.hpp — single-layer micro-probes with inputs shaped like a
// workload's. Each calls one layer's public function in a timed loop and
// returns nanoseconds per call; they run only in traced invocations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "netio/shim.hpp"

namespace perfbench {

/// Metric-name keys of net::PacketType, in enum order.
inline constexpr const char* kPacketTypeKeys[cesrm::net::kPacketTypeCount] = {
    "data", "session", "request", "reply", "exp_request", "exp_reply"};

/// sim::EventQueue schedule + pop (and cancel for `cancel_share` of the
/// events) at a steady queue depth of `depth`; ns per operation.
double probe_queue_op_ns(std::size_t depth, double cancel_share);

/// net::Network::multicast of DATA packets over each tree, run to
/// completion on a Simulator; ns per link crossing.
double probe_hop_ns(const std::vector<const cesrm::net::MulticastTree*>& trees);

/// netio::LossShim::crossing of DATA packets from the root to every
/// receiver of `tree`; ns per verdict.
double probe_shim_ns(const cesrm::net::MulticastTree& tree,
                     const cesrm::netio::ShimConfig& config);

/// wire::encode_packet / wire::decode_packet_exact over a PDU mix with
/// `count[t]` frames of each PacketType; ns per frame.
struct WireCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
WireCost probe_wire(
    const std::array<std::uint64_t, cesrm::net::kPacketTypeCount>& count);

}  // namespace perfbench
