// lms_agent.hpp — a Light-weight Multicast Services member (baseline).
//
// LMS [13] is the router-assisted alternative the CESRM paper positions
// itself against: instead of SRM's suppression or CESRM's caching, every
// loss is reported straight to the *designated replier* of the smallest
// enclosing subtree (router state, see LmsDirectory); the reply is unicast
// to that turning-point router and subcast downstream. Recovery is fast
// and perfectly localized — as long as the router state is fresh.
//
// LmsAgent reuses the SRM substrate for everything except recovery
// scheduling: data handling, loss detection (gaps + session messages),
// distance estimation, and statistics come from SrmAgent; the SRM request
// timer is disarmed the moment a loss is detected and an LMS exchange
// starts instead:
//
//   * request: unicast to the designated replier of the lowest ancestor
//     router whose replier is not the requestor itself;
//   * retry: if the reply does not arrive within an RTT-scaled timeout the
//     request escalates one router level upward (doubling the timeout) —
//     LMS's hierarchy walk; if the designated replier is stale (crashed),
//     requests black-hole until the directory repairs, which is exactly
//     the failure mode the churn comparison measures;
//   * reply: a replier holding the packet unicasts it to the turning-point
//     router, which subcasts it to the subtree (exp-reply packets, so the
//     delivery plumbing is shared with router-assisted CESRM).
#pragma once

#include <map>

#include "lms/directory.hpp"
#include "srm/srm_agent.hpp"

namespace cesrm::lms {

class LmsAgent : public srm::SrmAgent {
 public:
  /// All members of one session share the `directory` (the routers'
  /// replier state); `config` configures the SRM substrate (sessions,
  /// distances).
  LmsAgent(sim::Simulator& sim, net::Transport& network, net::NodeId self,
           net::NodeId primary_source, const srm::SrmConfig& config,
           LmsDirectory& directory, util::Rng rng);

 protected:
  void on_loss_detected(WantState& want) override;
  void on_exp_request(const net::Packet& pkt) override;
  void on_packet_available(net::NodeId source, net::SeqNo seq) override;
  /// The retry timer drives an LMS recovery; the SRM request timer is
  /// cancelled at detection.
  bool recovery_timer_armed(const WantState& want) const override;

 private:
  void send_lms_request(net::NodeId source, net::SeqNo seq);
  void retry_timer_fired(net::NodeId source, net::SeqNo seq);

  LmsDirectory& directory_;
  /// Escalation level per outstanding loss (keyed by (source, seq)).
  std::map<std::pair<net::NodeId, net::SeqNo>, int> escalation_;
};

}  // namespace cesrm::lms
