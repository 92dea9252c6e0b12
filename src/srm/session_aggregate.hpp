// session_aggregate.hpp — hierarchical session-state aggregation.
//
// SRM's session machinery is flat: every member advertises its reception
// state to every other member each period, so the per-period session cost
// grows as O(members × links) — the first thing that melts at 10⁵–10⁶
// receivers. This unit gives the scale path the standard fix (hierarchical
// aggregation, as in RMTP/TMTP-style trees): members fold their session
// state into an associative-commutative integer summary, each aggregation
// point merges its children's summaries, and exactly one summary per tree
// edge flows upstream per period — O(tree nodes), independent of how many
// members sit behind each leaf.
//
// Everything in the summary is integer max/sum, so the fold is bit-exact
// regardless of association order: the hierarchical result equals the flat
// all-members fold *exactly*, which the property suite asserts against an
// O(N²) per-node reference.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/topology.hpp"

namespace cesrm::srm {

/// Session state of a set of members, folded to integers. The identity
/// element is the default-constructed summary (members == 0).
struct SessionSummary {
  std::uint64_t members = 0;
  /// Lowest next-expected data seq over the members (reception frontier;
  /// the root's value bounds how far the source may forget history).
  std::uint64_t min_horizon = std::numeric_limits<std::uint64_t>::max();
  /// Highest next-expected data seq over the members.
  std::uint64_t max_horizon = 0;
  /// Losses currently awaiting repair, summed.
  std::uint64_t outstanding = 0;
  /// Sum and max of the members' RTT-to-source estimates (integer ns, so
  /// the mean at any aggregation point is exact: rtt_sum_ns / members).
  std::int64_t rtt_sum_ns = 0;
  std::int64_t rtt_max_ns = 0;

  friend bool operator==(const SessionSummary&,
                         const SessionSummary&) = default;
};

/// Associative + commutative merge (max/min/sum of integers).
SessionSummary merge(const SessionSummary& a, const SessionSummary& b);

/// Hierarchical fold: returns one summary per tree node, where node v's
/// summary covers every member behind v's subtree. `leaf_summary[v]` is
/// the summary of the members attached at leaf v (identity for non-leaf
/// indices and empty leaves). One bottom-up pass — O(tree nodes) merges.
std::vector<SessionSummary> aggregate_up(
    const net::MulticastTree& tree,
    const std::vector<SessionSummary>& leaf_summary);

/// O(N²) reference: node v's summary computed by scanning *every* leaf
/// and merging those in v's subtree, one node at a time. Exists only to
/// pin aggregate_up bit-exactly in tests.
std::vector<SessionSummary> flat_reference(
    const net::MulticastTree& tree,
    const std::vector<SessionSummary>& leaf_summary);

}  // namespace cesrm::srm
