#include "srm/session.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cesrm::srm {

void DistanceTable::on_session(net::NodeId peer,
                               const net::SessionPayload& payload,
                               sim::SimTime now) {
  CESRM_CHECK(peer != self_);
  last_heard_[peer] = Heard{payload.stamp, now};
  for (const auto& echo : payload.echoes) {
    if (echo.peer != self_) continue;
    // RTT = (now − our stamp) − peer hold time; one-way = RTT / 2.
    const sim::SimTime rtt = (now - echo.peer_stamp) - echo.hold;
    if (rtt.is_negative()) continue;  // clock artefact; ignore
    distance_[peer] = rtt.to_seconds() / 2.0;
  }
}

std::vector<net::SessionEcho> DistanceTable::build_echoes(
    sim::SimTime now) const {
  std::vector<net::SessionEcho> echoes;
  echoes.reserve(last_heard_.size());
  for (const auto& [peer, heard] : last_heard_) {
    net::SessionEcho e;
    e.peer = peer;
    e.peer_stamp = heard.stamp;
    e.hold = now - heard.received;
    echoes.push_back(e);
  }
  // Deterministic order (unordered_map iteration is not).
  std::sort(echoes.begin(), echoes.end(),
            [](const net::SessionEcho& a, const net::SessionEcho& b) {
              return a.peer < b.peer;
            });
  return echoes;
}

double DistanceTable::distance(net::NodeId peer, double fallback) const {
  const auto it = distance_.find(peer);
  return it != distance_.end() ? it->second : fallback;
}

bool DistanceTable::has_estimate(net::NodeId peer) const {
  return distance_.count(peer) != 0;
}

}  // namespace cesrm::srm
