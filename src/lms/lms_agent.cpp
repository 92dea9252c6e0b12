#include "lms/lms_agent.hpp"

#include <algorithm>

#include "obs/trace_recorder.hpp"
#include "util/check.hpp"

namespace cesrm::lms {

namespace {
/// Base request-retry timeout, in units of the requestor→replier RTT.
constexpr double kRetryRttMultiple = 2.0;
/// Floor for the retry timeout (covers subcast fan-out and jitter).
constexpr sim::SimTime kRetryFloor = sim::SimTime::millis(50);
}  // namespace

LmsAgent::LmsAgent(sim::Simulator& sim, net::Transport& network,
                   net::NodeId self, net::NodeId primary_source,
                   const srm::SrmConfig& config, LmsDirectory& directory,
                   util::Rng rng)
    : SrmAgent(sim, network, self, primary_source, config, rng),
      directory_(directory) {}

void LmsAgent::on_loss_detected(WantState& want) {
  // LMS replaces SRM's suppression machinery entirely: disarm the SRM
  // request timer and start the directed exchange.
  want.request_timer.cancel();
  const net::NodeId source = want.source;
  const net::SeqNo seq = want.seq;
  want.exp_timer.emplace(
      sim_, [this, source, seq] { retry_timer_fired(source, seq); });
  escalation_[{source, seq}] = 0;
  send_lms_request(source, seq);
}

void LmsAgent::send_lms_request(net::NodeId source, net::SeqNo seq) {
  StreamState& s = stream(source);
  const auto it = s.want.find(seq);
  CESRM_CHECK(it != s.want.end());
  WantState& want = it->second;

  const int level = escalation_[{source, seq}];
  const auto route = directory_.route(node(), level);
  if (route) {
    net::RecoveryAnnotation ann;
    ann.requestor = node();
    ann.dist_requestor_source = distance_to(source);
    ann.replier = route->replier;
    ann.dist_replier_requestor = distance_to(route->replier);
    ann.turning_point = route->router;
    ++stats_.exp_requests_sent;
    if (auto* rec = sim_.recorder())
      rec->emit(sim_.now(), obs::EventKind::kExpAttempt, node(), source, seq,
                route->replier, /*detail=*/level);
    net_.unicast(node(), net::make_exp_request_packet(
                             node(), route->replier, source, seq, ann));
  }
  // Retry with escalation whether or not a route existed: the directory
  // may repair (re-designate) while we wait.
  const double rtt =
      route ? 2.0 * distance_to(route->replier) : 0.1;
  sim::SimTime timeout = std::max(
      kRetryFloor, sim::SimTime::from_seconds(kRetryRttMultiple * rtt));
  timeout = timeout * std::ldexp(1.0, std::min(level, 8));
  want.exp_timer->arm(timeout);
}

void LmsAgent::on_packet_available(net::NodeId source, net::SeqNo seq) {
  escalation_.erase({source, seq});
}

bool LmsAgent::recovery_timer_armed(const WantState& want) const {
  return want.exp_timer && want.exp_timer->armed();
}

void LmsAgent::retry_timer_fired(net::NodeId source, net::SeqNo seq) {
  if (failed()) return;
  auto& level = escalation_[{source, seq}];
  level = std::min(level + 1, 32);
  send_lms_request(source, seq);
}

void LmsAgent::on_exp_request(const net::Packet& pkt) {
  if (!originates(pkt.source)) note_new_sequence(pkt.source, pkt.seq);
  if (!has_packet(pkt.source, pkt.seq))
    return;  // shared loss: the requestor escalates after its timeout

  ReplyState& rs = reply_state(pkt.source, pkt.seq);
  if (sim_.now() < rs.abstinence_until)
    return;  // a reply for this packet just went downstream

  net::RecoveryAnnotation ann;
  ann.requestor = pkt.ann.requestor;
  ann.dist_requestor_source = pkt.ann.dist_requestor_source;
  ann.replier = node();
  ann.dist_replier_requestor = distance_to(pkt.ann.requestor);
  ann.turning_point = pkt.ann.turning_point;

  ++stats_.exp_replies_sent;
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRepairSent, node(), pkt.source,
              pkt.seq, pkt.ann.requestor, /*detail=*/1);
  const net::Packet reply =
      net::make_exp_reply_packet(node(), pkt.source, pkt.seq, ann);
  // LMS always delivers via the turning-point router (unicast + subcast);
  // the root router covers the whole tree, equivalent to multicast.
  net_.send_reply_localized(node(), ann.turning_point, reply);
  rs.abstinence_until =
      sim_.now() + sim::SimTime::from_seconds(
                       srm::kD3 * distance_to(pkt.ann.requestor));
}

}  // namespace cesrm::lms
