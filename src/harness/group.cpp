#include "harness/group.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace cesrm::harness {

std::unique_ptr<srm::SrmAgent> make_agent(Protocol protocol,
                                          sim::Simulator& sim,
                                          net::Transport& transport,
                                          net::NodeId node,
                                          net::NodeId source,
                                          const cesrm::CesrmConfig& config,
                                          util::Rng rng) {
  if (protocol == Protocol::kCesrm)
    return std::make_unique<cesrm::CesrmAgent>(sim, transport, node, source,
                                               config, rng);
  return std::make_unique<srm::SrmAgent>(sim, transport, node, source,
                                         config.srm, rng);
}

std::vector<net::NodeId> Group::member_nodes(const net::MulticastTree& tree) {
  std::vector<net::NodeId> nodes{tree.root()};
  for (net::NodeId r : tree.receivers()) nodes.push_back(r);
  return nodes;
}

Group::Group(const net::MulticastTree& tree, util::Rng& rng,
             const AgentFactory& make)
    : nodes_(member_nodes(tree)) {
  agents_.reserve(nodes_.size());
  for (net::NodeId node : nodes_) {
    agents_.push_back(
        make(node, rng.fork(static_cast<std::uint64_t>(node) + 1)));
    CESRM_CHECK(agents_.back() != nullptr && agents_.back()->node() == node);
  }
}

void Group::start_sessions(util::Rng& rng, sim::SimTime session_period) {
  const std::int64_t period_ms =
      std::max<std::int64_t>(1, session_period.ns() / 1000000);
  for (auto& agent : agents_)
    agent->start_session(
        sim::SimTime::millis(rng.uniform_int(0, period_ms - 1)));
}

std::vector<MemberResult> Group::collect() {
  std::vector<MemberResult> members;
  members.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    srm::SrmAgent& agent = *agents_[i];
    agent.stop_session();
    agent.finalize_stats();
    MemberResult m;
    m.node = nodes_[i];
    m.is_source = nodes_[i] == source();
    m.failed = agent.failed();
    m.stats = agent.stats();
    m.rtt_to_source =
        2.0 * agent.transport().path_delay(nodes_[i], source()).to_seconds();
    members.push_back(std::move(m));
  }
  return members;
}

ChainedSource::ChainedSource(sim::Simulator& sim, sim::SimTime period,
                             net::SeqNo count, Send send, Hold hold)
    : sim_(sim),
      period_(period),
      count_(count),
      send_(std::move(send)),
      hold_(std::move(hold)) {}

void ChainedSource::start(sim::SimTime at) {
  sim_.schedule_at(at, [this] { fire(0); });
}

void ChainedSource::fire(net::SeqNo seq) {
  if (hold_) {
    const sim::SimTime resume = hold_();
    if (resume > sim_.now()) {
      if (resume < sim::SimTime::infinity())
        sim_.schedule_at(resume, [this, seq] { fire(seq); });
      return;
    }
  }
  send_(seq);
  ++sent_;
  if (seq + 1 < count_)
    sim_.schedule_in(period_, [this, seq] { fire(seq + 1); });
}

}  // namespace cesrm::harness
