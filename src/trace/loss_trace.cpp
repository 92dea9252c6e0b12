#include "trace/loss_trace.hpp"

#include <bit>

namespace cesrm::trace {

LossTrace::LossTrace(std::string name,
                     std::shared_ptr<const net::MulticastTree> tree,
                     sim::SimTime period, net::SeqNo packet_count)
    : name_(std::move(name)),
      tree_(std::move(tree)),
      period_(period),
      packet_count_(packet_count) {
  CESRM_CHECK(tree_ != nullptr);
  CESRM_CHECK(period_ > sim::SimTime::zero());
  CESRM_CHECK(packet_count_ > 0);
  receivers_ = tree_->receivers();
  CESRM_CHECK_MSG(receivers_.size() <= 32,
                  "loss patterns are packed into 32-bit masks");
  node_to_ridx_.assign(tree_->size(), kNpos);
  for (std::size_t r = 0; r < receivers_.size(); ++r)
    node_to_ridx_[static_cast<std::size_t>(receivers_[r])] = r;
  patterns_.assign(static_cast<std::size_t>(packet_count_), 0);
}

net::NodeId LossTrace::receiver_node(std::size_t ridx) const {
  CESRM_CHECK(ridx < receivers_.size());
  return receivers_[ridx];
}

std::size_t LossTrace::receiver_index(net::NodeId node) const {
  CESRM_CHECK(node >= 0 && static_cast<std::size_t>(node) < node_to_ridx_.size());
  const std::size_t r = node_to_ridx_[static_cast<std::size_t>(node)];
  CESRM_CHECK_MSG(r != kNpos, "node " << node << " is not a receiver");
  return r;
}

void LossTrace::set_lost(std::size_t ridx, net::SeqNo seq, bool lost) {
  CESRM_CHECK(ridx < receivers_.size());
  CESRM_CHECK(seq >= 0 && seq < packet_count_);
  const LossPattern bit = LossPattern{1} << ridx;
  auto& p = patterns_[static_cast<std::size_t>(seq)];
  p = lost ? (p | bit) : (p & ~bit);
}

bool LossTrace::lost_by_node(net::NodeId node, net::SeqNo seq) const {
  return lost(receiver_index(node), seq);
}

std::uint64_t LossTrace::total_losses() const {
  std::uint64_t total = 0;
  for (const LossPattern p : patterns_)
    total += static_cast<std::uint64_t>(std::popcount(p));
  return total;
}

std::uint64_t LossTrace::receiver_losses(std::size_t ridx) const {
  CESRM_CHECK(ridx < receivers_.size());
  std::uint64_t n = 0;
  for (const LossPattern p : patterns_) n += (p >> ridx) & 1u;
  return n;
}

double LossTrace::loss_rate() const {
  const double cells = static_cast<double>(receivers_.size()) *
                       static_cast<double>(packet_count_);
  return cells > 0 ? static_cast<double>(total_losses()) / cells : 0.0;
}

std::map<LossPattern, std::uint64_t> LossTrace::pattern_histogram() const {
  std::map<LossPattern, std::uint64_t> hist;
  for (const LossPattern p : patterns_)
    if (p != 0) ++hist[p];
  return hist;
}

double LossTrace::pattern_repeat_fraction() const {
  std::uint64_t repeats = 0;
  std::uint64_t transitions = 0;
  LossPattern prev = 0;
  bool have_prev = false;
  for (const LossPattern p : patterns_) {
    if (p == 0) continue;
    if (have_prev) {
      ++transitions;
      if (p == prev) ++repeats;
    }
    prev = p;
    have_prev = true;
  }
  return transitions ? static_cast<double>(repeats) /
                           static_cast<double>(transitions)
                     : 0.0;
}

double LossTrace::mean_burst_length() const {
  // A receiver's burst starts at each packet it lost right after one it
  // received (or at packet 0): bit r set here and clear in the previous
  // pattern.
  std::uint64_t bursts = 0;
  std::uint64_t losses = 0;
  LossPattern prev = 0;
  for (const LossPattern p : patterns_) {
    losses += static_cast<std::uint64_t>(std::popcount(p));
    bursts += static_cast<std::uint64_t>(std::popcount(p & ~prev));
    prev = p;
  }
  return bursts ? static_cast<double>(losses) / static_cast<double>(bursts)
                : 0.0;
}

}  // namespace cesrm::trace
