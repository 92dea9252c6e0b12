// scale.hpp — the million-receiver scale driver.
//
// The Table-1 experiment harness (experiment.hpp) attaches a full SrmAgent
// per member — faithful, but kilobytes and many timers per receiver. This
// driver is the scale path: receivers live in struct-of-arrays
// srm::ReceiverBlock populations (F members behind each leaf, ~16 bytes of
// per-member state), session state flows pre-aggregated (one summary
// packet per block per period instead of one flood per member — see
// srm/session_aggregate.hpp), and the whole simulation runs on the
// sharded engine (sim::ShardedEngine) over N event queues with identical
// results for any shard count. 10⁵ receivers fit in a laptop's cache
// slack; 10⁶ are a matter of patience, not feasibility.
//
// partition_tree decides which shard runs each tree node. It weighs every
// node by the traffic the run sends through it and cuts the tree as deep
// as it must for the shards to carry even loads: every lookahead window
// lasts as long as its busiest shard.
//
// The driver measures what the scale story claims: events executed and
// wall time, bytes of member state per receiver, total and per-period
// session crossings versus the flat-SRM O(members × links) cost, and the
// block-level recovery-latency distribution (p50/p99) under SRM and
// CESRM-expedited recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "protocol.hpp"
#include "srm/session_aggregate.hpp"

namespace cesrm::harness {

struct ScaleConfig {
  /// SRM or CESRM receiver blocks; run_scale refuses any other protocol.
  Protocol protocol = Protocol::kCesrm;
  /// Total receiver population N; hosted as ceil(N / block_members)
  /// leaf blocks of up to block_members each.
  std::uint64_t receivers = 100000;
  std::uint32_t block_members = 100;
  int tree_depth = 6;
  net::SeqNo packets = 200;
  /// Independent per-member last-hop loss probability.
  double member_loss = 0.01;
  std::uint64_t seed = 1;
  /// Event queues of the sharded engine, >= 1 (identical results for
  /// every count — the scale suite asserts it).
  int shards = 1;
};

struct ScaleResult {
  std::uint64_t receivers = 0;
  std::uint64_t blocks = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t events_executed = 0;
  /// Events each shard executed. They sum to events_executed, but their
  /// split depends on the shard layout, so no determinism check reads
  /// them.
  std::vector<std::uint64_t> shard_events;
  double wall_seconds = 0;  ///< host timing — never part of determinism

  // --- recovery outcome over all members ---
  std::uint64_t losses = 0;
  std::uint64_t recovered = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t window_overflows = 0;
  std::uint64_t requests_sent = 0;
  std::int64_t recovery_p50_ns = 0;
  std::int64_t recovery_p99_ns = 0;

  // --- session economics ---
  std::uint64_t session_rounds = 0;
  /// Measured session-packet link crossings (aggregated path).
  std::uint64_t session_crossings = 0;
  /// What flat SRM would have crossed for the same rounds: one session
  /// flood per member per round — members × links × rounds.
  std::uint64_t flat_session_crossings = 0;

  /// Bytes of member-proportional SoA state, summed over blocks.
  std::uint64_t member_state_bytes = 0;
  double bytes_per_receiver = 0;

  /// Root-of-tree aggregate folded from the blocks' final summaries via
  /// aggregate_up (bit-exact vs the flat reference; tested).
  srm::SessionSummary root_summary;
};

ScaleResult run_scale(const ScaleConfig& config);

/// The shard map run_scale uses: entry v is the shard, in
/// [0, config.shards), that runs node v of `tree`. The root is on shard
/// 0. Each node is weighted by the events the configured traffic is
/// expected to cause there. Starting from the root's child subtrees, the
/// heaviest subtree is replaced by its children until packing the pieces
/// longest-first onto the least-loaded shard (shard 0 charged with the
/// root) leaves no shard more than 3% above an even share, or only leaves
/// are left. A router whose children were separated runs on its heaviest
/// child's shard. Deterministic; any map gives run_scale the same result.
std::vector<int> partition_tree(const net::MulticastTree& tree,
                                const ScaleConfig& config);

}  // namespace cesrm::harness
