// directory.hpp — LMS router replier state.
//
// The Light-weight Multicast Services protocol (Papadopoulos, Parulkar,
// Varghese — INFOCOM 1998; the paper's reference [13]) has every router in
// the multicast tree maintain a *replier link*: requests originating in
// the subtree rooted at that router are forwarded to the subtree's
// designated replier, and replies are unicast back to the router, which
// subcasts them downstream.
//
// LmsDirectory models that distributed router state centrally (the
// simulation equivalent of the per-router forwarding entries): a
// designated replier per router, a routing query that walks a requestor's
// ancestor chain (with escalation for retries), and — the crux of the
// CESRM paper's §3.3 critique — *staleness*: when a member crashes, every
// router that designated it keeps forwarding requests to the dead member
// until a repair delay elapses and the entry is re-designated. CESRM needs
// no such state, which is precisely the comparison bench_ablation's LMS
// axis quantifies.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ids.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace cesrm::lms {

class LmsDirectory {
 public:
  /// `repair_delay` models the time routers need to detect a crashed
  /// replier and re-designate (state refresh / timeout in real LMS).
  LmsDirectory(sim::Simulator& sim, const net::MulticastTree& tree,
               sim::SimTime repair_delay);

  /// The replier currently designated at `router` (possibly stale, i.e.
  /// crashed); kInvalidNode if the subtree has no live receivers at all.
  net::NodeId designated_replier(net::NodeId router) const;

  struct Route {
    net::NodeId router = net::kInvalidNode;   ///< turning-point router
    net::NodeId replier = net::kInvalidNode;  ///< its designated replier
  };

  /// The route a request from `requestor` takes at escalation `level`:
  /// the level-th ancestor router (from the requestor's parent upward)
  /// whose designated replier differs from the requestor. Returns the
  /// root-level route for levels beyond the chain (retries saturate at the
  /// top). nullopt when no route exists at all.
  std::optional<Route> route(net::NodeId requestor, int level) const;

  /// Records that `member` crashed: entries pointing at it remain *stale*
  /// for repair_delay, then re-designate to the lowest live receiver of
  /// each affected subtree.
  void fail_member(net::NodeId member);

  /// Number of re-designations performed so far (repair churn metric).
  int redesignations() const { return redesignations_; }
  bool is_failed(net::NodeId member) const;

 private:
  net::NodeId choose_replier(net::NodeId router) const;

  sim::Simulator& sim_;
  const net::MulticastTree& tree_;
  sim::SimTime repair_delay_;
  std::vector<net::NodeId> replier_;  // per node; valid for internal nodes
  std::vector<bool> failed_;
  int redesignations_ = 0;
};

}  // namespace cesrm::lms
