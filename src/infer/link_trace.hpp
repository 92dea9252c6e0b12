// link_trace.hpp — the "link trace representation" of §4.2.
//
// link : R → (I → L ∪ {⊥}) maps every (receiver, packet) loss to the tree
// link estimated responsible for it. It is produced by running the
// combination solver over each packet's observed loss pattern and is what
// drives loss injection in the trace-driven simulations (§4.3): when the
// source multicasts packet i, the network drops it on exactly the selected
// links, reproducing the original loss pattern. The selection depends on
// the pattern alone, so a packet is stored as the index of its pattern's
// combination.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "infer/combination_solver.hpp"
#include "infer/link_estimator.hpp"
#include "trace/drop_link_table.hpp"
#include "trace/loss_trace.hpp"
#include "util/check.hpp"

namespace cesrm::infer {

class LinkTraceRepresentation {
 public:
  /// Builds the representation for `trace` using `link_loss_rate`
  /// estimates (e.g. from estimate_links_yajnik). Every packet with one
  /// loss pattern gets that pattern's combination, solved once; nothing
  /// changes after construction, so concurrent readers need no lock.
  LinkTraceRepresentation(const trace::LossTrace& trace,
                          std::vector<double> link_loss_rate);

  /// The links on which packet `seq` is to be dropped (an antichain,
  /// sorted by link id).
  std::span<const net::LinkId> drop_links(net::SeqNo seq) const {
    return result(seq).links;
  }

  /// §4.3's loss injection: DATA packet `seq` is lost crossing `from` →
  /// `to` iff the crossing runs down the tree onto one of its drop links.
  bool drops(net::SeqNo seq, net::NodeId from, net::NodeId to) const {
    if (trace_->tree().parent(to) != from) return false;
    const auto links = drop_links(seq);
    return std::binary_search(links.begin(), links.end(), to);
  }

  /// link(r)(i): the link responsible for receiver index `ridx` losing
  /// packet `seq`; kInvalidLink (⊥) when the receiver received it.
  net::LinkId link_for(std::size_t ridx, net::SeqNo seq) const;

  /// Posterior confidence of the combination selected for packet `seq`
  /// (1.0 for packets without losses), rounded to float.
  double confidence(net::SeqNo seq) const {
    return static_cast<float>(result(seq).confidence);
  }

  /// §4.2 accuracy statistic: the fraction of lossy packets whose selected
  /// combination has confidence > `threshold`.
  double fraction_confident(double threshold) const;

  /// Ground-truth validation (synthetic traces only): fraction of lossy
  /// packets whose selected combination equals the true drop-link set
  /// restricted to links that actually caused receiver losses.
  double truth_match_fraction(const trace::DropLinkTable& truth) const;

  net::SeqNo packet_count() const {
    return static_cast<net::SeqNo>(result_index_.size());
  }
  const trace::LossTrace& trace() const { return *trace_; }
  const CombinationSolver& solver() const { return *solver_; }

 private:
  const CombinationResult& result(net::SeqNo seq) const {
    CESRM_CHECK(seq >= 0 && seq < packet_count());
    return *results_[result_index_[static_cast<std::size_t>(seq)]];
  }

  const trace::LossTrace* trace_;
  std::unique_ptr<CombinationSolver> solver_;
  /// The solver's result for each distinct pattern of the trace, pattern
  /// 0 first; the pointers are into the solver's memo, whose entries
  /// never move.
  std::vector<const CombinationResult*> results_;
  /// Per packet: its pattern's entry in results_.
  std::vector<std::uint32_t> result_index_;
};

}  // namespace cesrm::infer
