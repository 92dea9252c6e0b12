// sharded.hpp — conservative parallel discrete-event engine.
//
// The ShardedEngine partitions the model's scheduling locations (tree
// nodes, in this codebase) across S shards, each with its own Simulator
// (clock + 4-ary heap + slot pool), and runs them on S threads in
// lookahead windows:
//
//   W0 = min over shards of the earliest pending event
//   W1 = min(W0 + lookahead, horizon + 1 tick)
//
// Every shard executes its events with time < W1, then all shards meet at
// a barrier. Cross-shard event handoff goes through per-(src, dst) mailbox
// vectors: a shard posts {when, tag, callback} during its window and the
// destination shard drains its mailboxes into its own queue after the
// barrier, before the next window is computed. The scheme is conservative
// — correct-by-construction, no rollback — because every cross-shard
// event is a packet arrival over a link of delay >= lookahead: an event
// posted at local time t >= W0 arrives at t + lookahead >= W0 + lookahead
// >= W1, i.e. always beyond the current window, so no shard can receive
// an event for a time it has already passed.
//
// Determinism for ANY shard count (including 1) rests on the event tags
// (EventQueue::schedule_tagged). A queue's schedule sequence is an
// artifact of execution interleaving and differs across layouts, so all
// model events scheduled while processing location L carry the tag
// ⟨L, per-L counter⟩; ties at one instant then resolve by tag — a total
// order fixed by the model, not by the layout. Per-location counters are
// themselves deterministic by induction: each location's events execute
// in exactly one shard in (time, tag) order, and untagged (tag-0) events
// — setup and protocol timers, which always fire in their own location's
// shard — sort before all tagged events, with tag-0 ties at one instant
// either belonging to one location (FIFO by that location's own
// deterministic arming order) or touching disjoint per-location state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace cesrm::sim {

class ShardedEngine {
 public:
  /// `shard_of_location[l]` maps location l to its owning shard in
  /// [0, shards). `lookahead` must be positive and no larger than the
  /// minimum cross-shard link delay (the harness passes the link delay).
  ShardedEngine(std::vector<int> shard_of_location, int shards,
                SimTime lookahead);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shards() const { return shards_; }
  SimTime lookahead() const { return lookahead_; }
  int shard_of(int location) const {
    return shard_of_location_[static_cast<std::size_t>(location)];
  }

  /// The shard's simulator. Before run_until() this is the setup surface
  /// (single-threaded); during the run each shard thread owns its own.
  Simulator& sim(int shard) { return *sims_[static_cast<std::size_t>(shard)]; }

  /// The calling shard thread's simulator / shard index. Valid only on a
  /// shard thread inside run_until() (and, for convenience, on the setup
  /// thread where it resolves to shard 0's simulator with shard index 0 —
  /// setup happens before any cross-shard traffic exists).
  Simulator& current_sim() { return *sims_[current_shard_index()]; }
  int current_shard() const { return static_cast<int>(current_shard_index()); }

  /// Deterministic ordering tag for an event scheduled while processing
  /// location `from`. Call only from the shard that owns `from`.
  std::uint64_t next_tag(int from) {
    return (static_cast<std::uint64_t>(from) + 2) << kTagShift |
           ++tag_counter_[static_cast<std::size_t>(from)];
  }

  /// Schedules `cb` at `when` at location `dest`, tagged from location
  /// `from` (the location being processed). Same-shard destinations go
  /// straight into the current queue; cross-shard destinations are posted
  /// to the mailbox and drained at the window barrier — `when` must then
  /// lie at or beyond the current window's end (conservative lookahead).
  void schedule_from(int from, int dest, SimTime when,
                     EventQueue::Callback&& cb);

  /// Runs all shards to `horizon` (inclusive, like Simulator::run_until)
  /// on shards() threads, then clamps every shard clock to `horizon`.
  void run_until(SimTime horizon);

  // --- aggregate diagnostics (valid after run_until) ---
  std::uint64_t events_executed() const;
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t cross_shard_posts() const { return posts_; }

 private:
  static constexpr int kTagShift = 40;

  struct Posted {
    SimTime when;
    std::uint64_t tag = 0;
    EventQueue::Callback cb;
  };

  std::size_t current_shard_index() const;
  void drain_mailboxes(int me);

  std::vector<int> shard_of_location_;
  int shards_ = 1;
  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::uint64_t> tag_counter_;  ///< per location, owner-written
  /// mail_[src * shards + dst]: written by src during its window, drained
  /// by dst after the barrier — the barrier is the only synchronization.
  std::vector<std::vector<Posted>> mail_;
  SimTime window_end_ = SimTime::zero();  ///< written by barrier completion
  bool done_ = false;                     ///< likewise
  std::uint64_t windows_ = 0;
  std::uint64_t posts_ = 0;  ///< summed from per-shard counts after the run
  std::vector<std::uint64_t> shard_posts_;
};

}  // namespace cesrm::sim
