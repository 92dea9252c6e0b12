// topology.hpp — the IP multicast tree T = ⟨N, s, L⟩ of the paper (§4.1).
//
// Nodes are dense integers 0..size()-1. The root is the transmission
// source; internal nodes are multicast-capable routers; leaves are the
// receivers. Links are identified by their child endpoint. The tree is
// immutable after construction, so all derived structure (children lists,
// depths, leaf sets per subtree) is precomputed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "util/check.hpp"

namespace cesrm::net {

class MulticastTree {
 public:
  /// Builds a tree from a parent vector: parent[root] == kInvalidNode and
  /// parent[v] < size() for all others. Validates acyclicity/connectivity.
  explicit MulticastTree(std::vector<NodeId> parents);

  NodeId root() const { return root_; }
  std::size_t size() const { return parent_.size(); }
  /// Number of links (= size() - 1).
  std::size_t link_count() const { return size() - 1; }

  NodeId parent(NodeId v) const {
    CESRM_DCHECK(v >= 0 && static_cast<std::size_t>(v) < parent_.size());
    return parent_[static_cast<std::size_t>(v)];
  }
  const std::vector<NodeId>& children(NodeId v) const {
    CESRM_DCHECK(v >= 0 && static_cast<std::size_t>(v) < children_.size());
    return children_[static_cast<std::size_t>(v)];
  }
  bool is_leaf(NodeId v) const { return children(v).empty(); }
  bool is_root(NodeId v) const { return v == root_; }

  /// Depth of v (root has depth 0).
  int depth(NodeId v) const;
  /// Maximum leaf depth — the paper's "tree depth" column in Table 1.
  int max_depth() const { return max_depth_; }

  /// Receivers = leaves, ordered by node id.
  const std::vector<NodeId>& receivers() const { return leaves_; }

  /// All links, ordered by child id.
  const std::vector<LinkId>& links() const { return links_; }

  /// Receivers in the subtree rooted at `v` (inclusive if v is a leaf).
  const std::vector<NodeId>& subtree_receivers(NodeId v) const;

  /// True if `ancestor` lies on the path root → v (inclusive). Two
  /// comparisons against the precomputed Euler-tour intervals.
  bool is_ancestor(NodeId ancestor, NodeId v) const {
    CESRM_DCHECK(ancestor >= 0 &&
                 static_cast<std::size_t>(ancestor) < tin_.size());
    CESRM_DCHECK(v >= 0 && static_cast<std::size_t>(v) < tin_.size());
    return tin_[static_cast<std::size_t>(ancestor)] <=
               tin_[static_cast<std::size_t>(v)] &&
           tout_[static_cast<std::size_t>(v)] <=
               tout_[static_cast<std::size_t>(ancestor)];
  }

  /// Lowest common ancestor — O(log N) via the binary-lifting table.
  NodeId lca(NodeId a, NodeId b) const;

  /// The ancestor of `v` at depth `d` (requires 0 <= d <= depth(v)).
  NodeId ancestor_at_depth(NodeId v, int d) const;

  /// The neighbour of `at` on the tree path toward `dest` (requires
  /// at != dest): the child whose subtree contains `dest`, else parent.
  NodeId next_hop_toward(NodeId at, NodeId dest) const;

  /// Node sequence a → b along tree edges (inclusive of both endpoints).
  std::vector<NodeId> path(NodeId a, NodeId b) const;

  /// Number of edges on the path a → b — O(log N).
  int hop_distance(NodeId a, NodeId b) const;

  /// Tree neighbours of v: its parent first (none at the root), then its
  /// children in children() order.
  const std::vector<NodeId>& neighbors(NodeId v) const {
    CESRM_DCHECK(v >= 0 && static_cast<std::size_t>(v) < neighbors_.size());
    return neighbors_[static_cast<std::size_t>(v)];
  }

  /// Human-readable single-line rendering, e.g. "0(1(3 4) 2(5))".
  std::string to_string() const;

 private:
  void validate() const;
  void build_ancestry_tables();

  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<std::vector<NodeId>> neighbors_;
  std::vector<int> depth_;
  /// Euler-tour entry/exit order: u is an ancestor of v (inclusive) iff
  /// tin_[u] <= tin_[v] and tout_[v] <= tout_[u].
  std::vector<int> tin_;
  std::vector<int> tout_;
  /// Binary lifting: up_[k][v] is v's 2^k-th ancestor (kInvalidNode when
  /// the walk leaves the tree). up_.size() covers the deepest node.
  std::vector<std::vector<NodeId>> up_;
  std::vector<NodeId> leaves_;
  std::vector<LinkId> links_;
  std::vector<std::vector<NodeId>> subtree_receivers_;
  NodeId root_ = kInvalidNode;
  int max_depth_ = 0;
};

}  // namespace cesrm::net
