// session.hpp — SRM session-message machinery (§2).
//
// Group members periodically multicast session messages serving two
// purposes: (a) inter-host distance estimation and (b) loss detection via
// the advertised highest received sequence number. DistanceTable holds the
// per-host view: for each peer, the last session stamp heard (to be echoed
// back) and the current one-way distance estimate.
//
// Estimation works by timestamp echo: A's session message carries, for
// every peer B it has heard from, the pair (stamp of B's last session
// message, how long ago A received it). When B sees its own stamp echoed
// it closes the loop: RTT = (now − stamp) − hold, d̂BA = RTT/2. With
// symmetric link delays and lossless session exchange (the paper's §4.3
// assumption) the estimate equals the true one-way tree-path delay.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/ids.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace cesrm::srm {

class DistanceTable {
 public:
  explicit DistanceTable(net::NodeId self) : self_(self) {}

  /// Records the reception of a session message from `peer` stamped
  /// `stamp`, received at local time `now`, and processes any echo
  /// addressed to us (updating the distance estimate for `peer`).
  void on_session(net::NodeId peer, const net::SessionPayload& payload,
                  sim::SimTime now);

  /// Builds the echo list for our next outgoing session message.
  std::vector<net::SessionEcho> build_echoes(sim::SimTime now) const;

  /// One-way distance estimate to `peer` in seconds; `fallback` (default
  /// 0) when no estimate exists yet.
  double distance(net::NodeId peer, double fallback = 0.0) const;
  bool has_estimate(net::NodeId peer) const;

  std::size_t known_peers() const { return last_heard_.size(); }

 private:
  struct Heard {
    sim::SimTime stamp;      // peer's send timestamp
    sim::SimTime received;   // our local reception time
  };

  net::NodeId self_;
  std::unordered_map<net::NodeId, Heard> last_heard_;
  std::unordered_map<net::NodeId, double> distance_;
};

}  // namespace cesrm::srm
