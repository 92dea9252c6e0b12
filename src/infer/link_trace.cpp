#include "infer/link_trace.hpp"

#include <unordered_map>

namespace cesrm::infer {

LinkTraceRepresentation::LinkTraceRepresentation(
    const trace::LossTrace& trace, std::vector<double> link_loss_rate)
    : trace_(&trace) {
  solver_ = std::make_unique<CombinationSolver>(
      trace.tree(), std::move(link_loss_rate), trace.receivers());
  std::unordered_map<trace::LossPattern, std::uint32_t> index;
  const auto index_of = [&](trace::LossPattern x) {
    const auto [it, fresh] =
        index.try_emplace(x, static_cast<std::uint32_t>(results_.size()));
    if (fresh) results_.push_back(&solver_->solve(x));
    return it->second;
  };
  index_of(0);
  result_index_.resize(static_cast<std::size_t>(trace.packet_count()));
  for (net::SeqNo i = 0; i < trace.packet_count(); ++i) {
    const trace::LossPattern x = trace.pattern(i);
    result_index_[static_cast<std::size_t>(i)] = x == 0 ? 0 : index_of(x);
  }
}

net::LinkId LinkTraceRepresentation::link_for(std::size_t ridx,
                                              net::SeqNo seq) const {
  if (!trace_->lost(ridx, seq)) return net::kInvalidLink;
  const auto links = drop_links(seq);
  net::NodeId v = trace_->receiver_node(ridx);
  while (v != net::kInvalidNode) {
    if (std::binary_search(links.begin(), links.end(), v)) return v;
    v = trace_->tree().parent(v);
  }
  CESRM_CHECK_MSG(false, "no responsible link for receiver " << ridx
                                                             << " seq " << seq);
  return net::kInvalidLink;
}

double LinkTraceRepresentation::fraction_confident(double threshold) const {
  std::uint64_t lossy = 0;
  std::uint64_t confident = 0;
  for (net::SeqNo i = 0; i < packet_count(); ++i) {
    if (drop_links(i).empty()) continue;
    ++lossy;
    if (confidence(i) > threshold) ++confident;
  }
  return lossy ? static_cast<double>(confident) / static_cast<double>(lossy)
               : 1.0;
}

double LinkTraceRepresentation::truth_match_fraction(
    const trace::DropLinkTable& truth) const {
  CESRM_CHECK(static_cast<net::SeqNo>(truth.size()) == packet_count());
  std::uint64_t lossy = 0;
  std::uint64_t matched = 0;
  const auto& tree = trace_->tree();
  std::vector<net::LinkId> effective;
  for (net::SeqNo i = 0; i < packet_count(); ++i) {
    const auto selected = drop_links(i);
    if (selected.empty()) continue;
    ++lossy;
    // Ground truth may include drops that shadowed no receiver (already
    // under another dropped link) or, in principle, drops on links whose
    // entire receiver set also lost the packet via an ancestor; restrict
    // to the *effective* antichain: true drops not downstream of another
    // true drop.
    const auto dropped = truth[static_cast<std::size_t>(i)];
    effective.clear();
    for (net::LinkId l : dropped) {
      bool shadowed = false;
      for (net::LinkId other : dropped) {
        if (other != l && tree.is_ancestor(other, l)) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed) effective.push_back(l);
    }
    std::sort(effective.begin(), effective.end());
    if (std::ranges::equal(effective, selected)) ++matched;
  }
  return lossy ? static_cast<double>(matched) / static_cast<double>(lossy)
               : 1.0;
}

}  // namespace cesrm::infer
