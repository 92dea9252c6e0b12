// group.hpp — the fixed source-first group every agent-based run builds.
//
// The paper's experiment (§4.3) is one group: the source (the tree root)
// and its receivers run one protocol over a shared tree, exchange session
// messages during a warm-up, then receive a fixed-period transmission from
// the source. Group owns those assembly steps once, over any transport —
// the simulated net::Network, one SocketTransport per loopback member — and
// any agent type the caller's factory builds (SRM, CESRM, LMS):
//
//  * members: the source first, then the receivers in tree order; each
//    gets one agent from the factory, seeded with rng.fork(node + 1) in
//    member order;
//  * start_sessions(): each member's first session message at a whole-
//    millisecond offset in [0, session period), drawn in member order;
//  * collect(): stop every session, finalize the statistics, and return
//    one MemberResult per member (RTT = 2 × tree path delay to the source).
//
// ChainedSource is the fixed-period transmission: exactly one pending
// send at a time, each send scheduling the next. It lives in the caller's
// frame and its events point back at it, so it must outlive the run of
// the simulator it schedules on (it does whenever both are locals of the
// running function).
//
// Lifetime: construct a Group after — and destroy it before — the
// simulators and transports its agents use.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "lms/directory.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "protocol.hpp"
#include "sim/simulator.hpp"
#include "srm/srm_agent.hpp"
#include "util/rng.hpp"

namespace cesrm::harness {

/// Per-member outcome. Members are ordered source first, then receivers
/// in tree order — matching the figures' "receiver 0 is the source".
struct MemberResult {
  net::NodeId node = net::kInvalidNode;
  bool is_source = false;
  /// Crashed (and not recovered) when the run ended.
  bool failed = false;
  srm::HostStats stats;
  /// True RTT to the source in seconds (normalization unit of Figures 1-2).
  double rtt_to_source = 0.0;
};

/// Builds the agent of member `node`, seeded with `rng`.
using AgentFactory =
    std::function<std::unique_ptr<srm::SrmAgent>(net::NodeId node,
                                                 util::Rng rng)>;

/// An SrmAgent (config.srm), a CesrmAgent (config) or an LmsAgent
/// (config.srm, over the run's router `directory`) for `protocol`. LMS
/// needs a directory; the other protocols ignore it.
std::unique_ptr<srm::SrmAgent> make_agent(Protocol protocol,
                                          sim::Simulator& sim,
                                          net::Transport& transport,
                                          net::NodeId node,
                                          net::NodeId source,
                                          const cesrm::CesrmConfig& config,
                                          lms::LmsDirectory* directory,
                                          util::Rng rng);

class Group {
 public:
  /// The member nodes in group order: the root, then tree.receivers().
  static std::vector<net::NodeId> member_nodes(const net::MulticastTree& tree);

  /// Builds one agent per member through `make`, forking `rng` per member.
  Group(const net::MulticastTree& tree, util::Rng& rng,
        const AgentFactory& make);
  /// Scheduled callbacks (the transmission's sends) hold its address.
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  std::size_t size() const { return nodes_.size(); }
  net::NodeId source() const { return nodes_.front(); }
  net::NodeId node(std::size_t i) const { return nodes_[i]; }
  srm::SrmAgent& agent(std::size_t i) const { return *agents_[i]; }
  srm::SrmAgent& source_agent() const { return *agents_.front(); }

  /// Starts every member's session at a staggered offset drawn from `rng`.
  void start_sessions(util::Rng& rng, sim::SimTime session_period);

  /// Ends the run: stop_session() and finalize_stats() on every member,
  /// then one MemberResult each, in member order.
  std::vector<MemberResult> collect();

 private:
  std::vector<net::NodeId> nodes_;
  std::vector<std::unique_ptr<srm::SrmAgent>> agents_;
};

/// Fixed-period transmission of packets 0..count-1 on `sim`.
class ChainedSource {
 public:
  using Send = std::function<void(net::SeqNo seq)>;
  /// Earliest time the source may transmit. A time after now() defers the
  /// pending packet to it, keeping sequence numbers consecutive; infinity
  /// ends the transmission (a crash-stopped source).
  using Hold = std::function<sim::SimTime()>;

  ChainedSource(sim::Simulator& sim, sim::SimTime period, net::SeqNo count,
                Send send, Hold hold = nullptr);
  ChainedSource(const ChainedSource&) = delete;
  ChainedSource& operator=(const ChainedSource&) = delete;

  /// Schedules packet 0 at `at`.
  void start(sim::SimTime at);
  /// Packets handed to `send` so far.
  net::SeqNo sent() const { return sent_; }

 private:
  void fire(net::SeqNo seq);

  sim::Simulator& sim_;
  const sim::SimTime period_;
  const net::SeqNo count_;
  const Send send_;
  const Hold hold_;
  net::SeqNo sent_ = 0;
};

}  // namespace cesrm::harness
