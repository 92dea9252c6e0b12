#include "srm/session_aggregate.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cesrm::srm {

SessionSummary merge(const SessionSummary& a, const SessionSummary& b) {
  if (a.members == 0) return b;
  if (b.members == 0) return a;
  SessionSummary m;
  m.members = a.members + b.members;
  m.min_horizon = std::min(a.min_horizon, b.min_horizon);
  m.max_horizon = std::max(a.max_horizon, b.max_horizon);
  m.outstanding = a.outstanding + b.outstanding;
  m.rtt_sum_ns = a.rtt_sum_ns + b.rtt_sum_ns;
  m.rtt_max_ns = std::max(a.rtt_max_ns, b.rtt_max_ns);
  return m;
}

std::vector<SessionSummary> aggregate_up(
    const net::MulticastTree& tree,
    const std::vector<SessionSummary>& leaf_summary) {
  CESRM_CHECK(leaf_summary.size() == tree.size());
  std::vector<SessionSummary> out = leaf_summary;
  // Node ids carry no ancestor ordering, so fold in reverse pre-order:
  // every node precedes its descendants in a DFS, hence the reverse sweep
  // folds each child into its parent before the parent moves upstream.
  std::vector<net::NodeId> order;
  order.reserve(tree.size());
  std::vector<net::NodeId> stack{tree.root()};
  while (!stack.empty()) {
    const net::NodeId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (net::NodeId c : tree.children(v)) stack.push_back(c);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (*it != tree.root())
      out[static_cast<std::size_t>(tree.parent(*it))] =
          merge(out[static_cast<std::size_t>(tree.parent(*it))],
                out[static_cast<std::size_t>(*it)]);
  return out;
}

std::vector<SessionSummary> flat_reference(
    const net::MulticastTree& tree,
    const std::vector<SessionSummary>& leaf_summary) {
  CESRM_CHECK(leaf_summary.size() == tree.size());
  std::vector<SessionSummary> out(tree.size());
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(tree.size()); ++v)
    for (net::NodeId u = 0; u < static_cast<net::NodeId>(tree.size()); ++u)
      if (leaf_summary[static_cast<std::size_t>(u)].members > 0 &&
          (u == v || tree.is_ancestor(v, u)))
        out[static_cast<std::size_t>(v)] =
            merge(out[static_cast<std::size_t>(v)],
                  leaf_summary[static_cast<std::size_t>(u)]);
  return out;
}

}  // namespace cesrm::srm
