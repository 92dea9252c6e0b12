// loss_trace.hpp — the per-receiver binary loss representation of §4.1.
//
// A LossTrace is the paper's mapping loss : R → (I → {0,1}) bundled with
// the IP multicast tree over which the transmission ran and the constant
// inter-packet period. Receivers are indexed densely 0..R-1 in the order
// of tree->receivers(); helpers convert between NodeId and receiver index.
//
// Loss *patterns* (the subset of receivers that lost a given packet,
// packed into a 32-bit mask — the traces have ≤ 17 receivers) are the unit
// the link-inference machinery of §4.2 operates on, and the unit the trace
// stores: one pattern per packet, so a receiver's loss bit is one shift
// away and every aggregate reads one array.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace cesrm::trace {

/// Subset of receivers (by dense receiver index) packed into a bitmask.
using LossPattern = std::uint32_t;

class LossTrace {
 public:
  LossTrace(std::string name, std::shared_ptr<const net::MulticastTree> tree,
            sim::SimTime period, net::SeqNo packet_count);

  const std::string& name() const { return name_; }
  const net::MulticastTree& tree() const { return *tree_; }
  std::shared_ptr<const net::MulticastTree> tree_ptr() const { return tree_; }
  sim::SimTime period() const { return period_; }
  net::SeqNo packet_count() const { return packet_count_; }
  sim::SimTime duration() const {
    return period_ * static_cast<std::int64_t>(packet_count_);
  }

  std::size_t receiver_count() const { return receivers_.size(); }
  const std::vector<net::NodeId>& receivers() const { return receivers_; }
  net::NodeId receiver_node(std::size_t ridx) const;
  /// Dense index of a receiver node; CHECK-fails for non-receivers.
  std::size_t receiver_index(net::NodeId node) const;

  /// Marks packet `seq` lost by receiver index `ridx`.
  void set_lost(std::size_t ridx, net::SeqNo seq, bool lost = true);
  bool lost(std::size_t ridx, net::SeqNo seq) const {
    CESRM_DCHECK(ridx < receivers_.size());
    return (pattern(seq) >> ridx) & 1u;
  }
  bool lost_by_node(net::NodeId node, net::SeqNo seq) const;

  /// Loss pattern of packet `seq` (bit r set ⇔ receiver index r lost it).
  LossPattern pattern(net::SeqNo seq) const {
    CESRM_DCHECK(seq >= 0 && seq < packet_count_);
    return patterns_[static_cast<std::size_t>(seq)];
  }

  /// Total losses summed over receivers — Table 1's "# of Losses" column.
  std::uint64_t total_losses() const;
  /// Losses of one receiver.
  std::uint64_t receiver_losses(std::size_t ridx) const;
  /// Fraction of (receiver, packet) cells lost.
  double loss_rate() const;

  /// Frequency of each non-empty loss pattern.
  std::map<LossPattern, std::uint64_t> pattern_histogram() const;

  /// Temporal locality statistic: over consecutive *lossy* packets, the
  /// fraction whose loss pattern equals the previous lossy packet's
  /// pattern. CESRM's premise is that this is high in real transmissions.
  double pattern_repeat_fraction() const;

  /// Mean length of per-receiver loss bursts (runs of consecutive losses).
  double mean_burst_length() const;

 private:
  std::string name_;
  std::shared_ptr<const net::MulticastTree> tree_;
  sim::SimTime period_;
  net::SeqNo packet_count_;
  std::vector<net::NodeId> receivers_;
  std::vector<std::size_t> node_to_ridx_;  // kNpos for non-receivers
  std::vector<LossPattern> patterns_;      // [seq]

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
};

}  // namespace cesrm::trace
