#include "net/topology.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "util/check.hpp"

namespace cesrm::net {

MulticastTree::MulticastTree(std::vector<NodeId> parents)
    : parent_(std::move(parents)) {
  const auto n = static_cast<NodeId>(parent_.size());
  CESRM_CHECK_MSG(n >= 2, "a multicast tree needs a source and a receiver");

  children_.resize(parent_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (parent_[v] == kInvalidNode) {
      CESRM_CHECK_MSG(root_ == kInvalidNode, "multiple roots");
      root_ = v;
    } else {
      CESRM_CHECK_MSG(parent_[v] >= 0 && parent_[v] < n && parent_[v] != v,
                      "bad parent for node " << v);
      children_[parent_[v]].push_back(v);
    }
  }
  CESRM_CHECK_MSG(root_ != kInvalidNode, "no root");
  validate();

  depth_.assign(parent_.size(), -1);
  depth_[static_cast<std::size_t>(root_)] = 0;
  // Parents can have arbitrary ids, so compute depths by BFS.
  std::vector<NodeId> frontier{root_};
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      for (NodeId c : children_[static_cast<std::size_t>(v)]) {
        depth_[static_cast<std::size_t>(c)] =
            depth_[static_cast<std::size_t>(v)] + 1;
        next.push_back(c);
      }
    }
    frontier = std::move(next);
  }

  neighbors_.resize(parent_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (parent_[v] != kInvalidNode) neighbors_[v].push_back(parent_[v]);
    for (NodeId c : children_[v]) neighbors_[v].push_back(c);
  }

  for (NodeId v = 0; v < n; ++v) {
    if (children_[v].empty()) {
      CESRM_CHECK_MSG(v != root_, "root cannot be a leaf");
      leaves_.push_back(v);
      max_depth_ = std::max(max_depth_, depth_[v]);
    }
    if (v != root_) links_.push_back(v);
  }

  subtree_receivers_.resize(parent_.size());
  // Post-order accumulation of leaf sets.
  std::function<void(NodeId)> gather = [&](NodeId v) {
    if (children_[v].empty()) {
      subtree_receivers_[v] = {v};
      return;
    }
    for (NodeId c : children_[v]) {
      gather(c);
      auto& mine = subtree_receivers_[v];
      mine.insert(mine.end(), subtree_receivers_[c].begin(),
                  subtree_receivers_[c].end());
    }
    std::sort(subtree_receivers_[v].begin(), subtree_receivers_[v].end());
  };
  gather(root_);

  build_ancestry_tables();
}

void MulticastTree::build_ancestry_tables() {
  const auto n = parent_.size();

  // Euler-tour entry/exit numbering by iterative DFS (child order =
  // node-id order, matching children_).
  tin_.assign(n, 0);
  tout_.assign(n, 0);
  int clock = 0;
  std::vector<std::pair<NodeId, std::size_t>> stack;  // (node, next child)
  stack.emplace_back(root_, 0);
  tin_[static_cast<std::size_t>(root_)] = clock++;
  while (!stack.empty()) {
    auto& [v, next_child] = stack.back();
    const auto& kids = children_[static_cast<std::size_t>(v)];
    if (next_child < kids.size()) {
      const NodeId c = kids[next_child++];
      tin_[static_cast<std::size_t>(c)] = clock++;
      stack.emplace_back(c, 0);
    } else {
      tout_[static_cast<std::size_t>(v)] = clock++;
      stack.pop_back();
    }
  }

  // Binary-lifting ancestor table, enough levels for the deepest node.
  int max_node_depth = 0;
  for (std::size_t v = 0; v < n; ++v)
    max_node_depth = std::max(max_node_depth, depth_[v]);
  int levels = 1;
  while ((1 << levels) <= max_node_depth) ++levels;
  up_.assign(static_cast<std::size_t>(levels),
             std::vector<NodeId>(n, kInvalidNode));
  up_[0] = parent_;
  for (int k = 1; k < levels; ++k) {
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId half = up_[static_cast<std::size_t>(k - 1)][v];
      if (half != kInvalidNode) {
        up_[static_cast<std::size_t>(k)][v] =
            up_[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(
                half)];
      }
    }
  }
}

void MulticastTree::validate() const {
  // Every node must reach the root without cycles.
  const auto n = static_cast<NodeId>(parent_.size());
  for (NodeId v = 0; v < n; ++v) {
    NodeId cur = v;
    std::size_t steps = 0;
    while (cur != root_) {
      cur = parent_[static_cast<std::size_t>(cur)];
      CESRM_CHECK_MSG(cur != kInvalidNode, "disconnected node " << v);
      CESRM_CHECK_MSG(++steps <= parent_.size(), "cycle through node " << v);
    }
  }
}

int MulticastTree::depth(NodeId v) const {
  CESRM_DCHECK(v >= 0 && static_cast<std::size_t>(v) < depth_.size());
  return depth_[static_cast<std::size_t>(v)];
}

const std::vector<NodeId>& MulticastTree::subtree_receivers(NodeId v) const {
  CESRM_DCHECK(v >= 0 &&
               static_cast<std::size_t>(v) < subtree_receivers_.size());
  return subtree_receivers_[static_cast<std::size_t>(v)];
}

NodeId MulticastTree::ancestor_at_depth(NodeId v, int d) const {
  CESRM_DCHECK(d >= 0 && d <= depth(v));
  int rise = depth(v) - d;
  for (int k = 0; rise != 0; ++k, rise >>= 1) {
    if (rise & 1) v = up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(v)];
  }
  return v;
}

NodeId MulticastTree::next_hop_toward(NodeId at, NodeId dest) const {
  CESRM_DCHECK(at != dest);
  // Down into the child subtree containing dest, otherwise up.
  if (!is_ancestor(at, dest)) return parent(at);
  return ancestor_at_depth(dest, depth(at) + 1);
}

NodeId MulticastTree::lca(NodeId a, NodeId b) const {
  if (is_ancestor(a, b)) return a;
  if (is_ancestor(b, a)) return b;
  // Lift `a` to the highest ancestor that is still not an ancestor of `b`;
  // its parent is the meeting point.
  for (int k = static_cast<int>(up_.size()) - 1; k >= 0; --k) {
    const NodeId next = up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(a)];
    if (next != kInvalidNode && !is_ancestor(next, b)) a = next;
  }
  return parent(a);
}

std::vector<NodeId> MulticastTree::path(NodeId a, NodeId b) const {
  const NodeId meet = lca(a, b);
  std::vector<NodeId> up;
  for (NodeId v = a; v != meet; v = parent(v)) up.push_back(v);
  up.push_back(meet);
  std::vector<NodeId> down;
  for (NodeId v = b; v != meet; v = parent(v)) down.push_back(v);
  up.insert(up.end(), down.rbegin(), down.rend());
  return up;
}

int MulticastTree::hop_distance(NodeId a, NodeId b) const {
  const NodeId meet = lca(a, b);
  return depth(a) + depth(b) - 2 * depth(meet);
}

std::string MulticastTree::to_string() const {
  std::ostringstream os;
  std::function<void(NodeId)> render = [&](NodeId v) {
    os << v;
    if (!children_[static_cast<std::size_t>(v)].empty()) {
      os << '(';
      bool first = true;
      for (NodeId c : children_[static_cast<std::size_t>(v)]) {
        if (!first) os << ' ';
        first = false;
        render(c);
      }
      os << ')';
    }
  };
  render(root_);
  return os.str();
}

}  // namespace cesrm::net
