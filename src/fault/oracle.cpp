#include "fault/oracle.hpp"

#include <algorithm>

#include "cesrm/cesrm_agent.hpp"
#include "cesrm/policy.hpp"
#include "util/check.hpp"

namespace cesrm::fault {

InvariantOracle::InvariantOracle(sim::Simulator& sim,
                                 const net::MulticastTree& tree,
                                 Options options)
    : sim_(sim), tree_(tree), options_(options) {
  CESRM_CHECK(options_.watchdog_period > sim::SimTime::zero());
}

void InvariantOracle::add_member(net::NodeId node,
                                 const srm::SrmAgent* agent) {
  CESRM_CHECK(agent != nullptr);
  nodes_.push_back(node);
  agents_.push_back(agent);
}

void InvariantOracle::note_crash(const ResolvedCrash& crash) {
  crashes_.push_back(crash);
}

void InvariantOracle::start(sim::SimTime horizon) {
  CESRM_CHECK_MSG(!agents_.empty(), "oracle has no members");
  horizon_ = horizon;
  watchdog_ = std::make_unique<sim::Timer>(sim_, [this] { watchdog_fired(); });
  watchdog_->arm(options_.watchdog_period);
}

void InvariantOracle::watchdog_fired() {
  ++watchdog_checks_;
  check_stalls();
  if (sim_.now() + options_.watchdog_period <= horizon_)
    watchdog_->arm(options_.watchdog_period);
}

void InvariantOracle::check_stalls() const {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const srm::SrmAgent* agent = agents_[i];
    if (agent->failed()) continue;
    CESRM_CHECK_MSG(agent->stalled_losses() == 0,
                    "liveness: node " << nodes_[i] << " has "
                                      << agent->stalled_losses()
                                      << " stalled losses (no armed recovery"
                                         " timer) at t=" << sim_.now());
  }
}

void InvariantOracle::finish(net::SeqNo packets_sent,
                             net::NodeId source) const {
  // Crash isolation: no timer callback ever ran on a failed member.
  for (std::size_t i = 0; i < agents_.size(); ++i)
    CESRM_CHECK_MSG(agents_[i]->stats().zombie_timer_fires == 0,
                    "safety: " << agents_[i]->stats().zombie_timer_fires
                               << " timer callbacks fired on crashed node "
                               << nodes_[i]);

  // Exactly-once retransmissions: no member re-executed a repair its
  // durable reply-dedup ledger proves it already served before a crash
  // (non-zero only when the dedup check is disabled — the seeded
  // true-positive the durable test suite drives).
  for (std::size_t i = 0; i < agents_.size(); ++i)
    CESRM_CHECK_MSG(
        agents_[i]->stats().duplicate_retransmissions_served == 0,
        "exactly-once: node "
            << nodes_[i] << " re-executed "
            << agents_[i]->stats().duplicate_retransmissions_served
            << " retransmissions it had already served before its crash");

  check_stalls();

  // Eventual delivery: every live member holds every packet some live
  // member holds. holders[seq] = a live member has (source, seq).
  std::vector<bool> holders(static_cast<std::size_t>(
                                std::max<net::SeqNo>(packets_sent, 0)),
                            false);
  for (const srm::SrmAgent* agent : agents_) {
    if (agent->failed()) continue;
    for (net::SeqNo seq = 0; seq < packets_sent; ++seq)
      if (agent->has_packet(source, seq))
        holders[static_cast<std::size_t>(seq)] = true;
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const srm::SrmAgent* agent = agents_[i];
    if (agent->failed() || agent->originates(source)) continue;
    for (net::SeqNo seq = 0; seq < packets_sent; ++seq)
      CESRM_CHECK_MSG(agent->has_packet(source, seq) ||
                          !holders[static_cast<std::size_t>(seq)],
                      "liveness: live node "
                          << nodes_[i] << " never recovered packet " << seq
                          << " although a live member holds it");
  }

  // Cache freshness: a live CESRM cache that still elects a dead replier
  // after the SRM fallback has re-seeded it many times over is stale.
  for (const ResolvedCrash& crash : crashes_) {
    const auto member =
        std::find(nodes_.begin(), nodes_.end(), crash.node);
    if (member == nodes_.end()) continue;
    const srm::SrmAgent* dead =
        agents_[static_cast<std::size_t>(member - nodes_.begin())];
    if (!dead->failed()) continue;  // recovered: a legitimate replier again
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      const auto* cesrm_agent =
          dynamic_cast<const cesrm::CesrmAgent*>(agents_[i]);
      if (cesrm_agent == nullptr || cesrm_agent->failed() ||
          cesrm_agent->originates(source))
        continue;
      const auto pair = cesrm::select_pair(
          cesrm_agent->cache(source), cesrm_agent->cesrm_config().policy);
      if (!pair || pair->replier != crash.node) continue;
      std::uint64_t reseeds = 0;
      for (const srm::RecoveryRecord& rec :
           cesrm_agent->stats().recoveries)
        if (rec.source == source && rec.recovered && !rec.expedited &&
            rec.recover_time > crash.at)
          ++reseeds;
      CESRM_CHECK_MSG(
          reseeds <= options_.cache_staleness_bound,
          "cache freshness: node "
              << nodes_[i] << " still elects crashed replier " << crash.node
              << " after " << reseeds << " post-crash SRM recoveries");
    }
  }
}

}  // namespace cesrm::fault
