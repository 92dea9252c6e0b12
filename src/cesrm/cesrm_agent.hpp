// cesrm_agent.hpp — the Caching-Enhanced SRM protocol agent (§3).
//
// CesrmAgent derives from SrmAgent: the entire SRM recovery machinery
// (suppression, back-off, abstinence) keeps running unchanged, and the
// expedited recovery scheme operates *in parallel* with it:
//
//  * each host maintains a collection of per-source requestor/replier
//    caches (§3.1), one for every stream it receives; every reply observed
//    for a packet this host lost updates the corresponding cache with the
//    annotated tuple, keeping the optimal pair per packet (a tuple whose
//    replier is a router, not a member, is never cached);
//  * upon detecting a loss, the expedition policy selects a pair from the
//    lost packet's source cache; if this host is the expeditious requestor
//    it arms an expedited request for REORDER-DELAY in the future
//    (cancelled if the packet shows up — it guards against reordering
//    false alarms) and then *unicasts* the request to the expeditious
//    replier (§3.2);
//  * an expeditious replier holding the packet immediately multicasts an
//    expedited reply — no suppression delay — unless a reply for the
//    packet is already scheduled or pending;
//  * with router assistance enabled (§3.3), the expedited reply is instead
//    unicast to the cached turning-point router and subcast downstream,
//    localizing the retransmission's exposure (a root turning point offers
//    no localization, so plain multicast is used there);
//  * if the expedited recovery fails for any reason — further loss, a
//    replier that shared the loss, or a replier that crashed (§3.3's
//    membership-churn scenario) — nothing special happens: SRM's scheme
//    recovers the packet, and its reply re-seeds the cache with a live
//    pair, which is how CESRM adapts to churn.
#pragma once

#include <map>
#include <vector>

#include "cesrm/cache.hpp"
#include "cesrm/policy.hpp"
#include "srm/srm_agent.hpp"

namespace cesrm::cesrm {

struct CesrmConfig {
  srm::SrmConfig srm;
  /// REORDER-DELAY (§3.2): grace period before the expedited request goes
  /// out, protecting against packets presumed missing due to reordering.
  /// The paper's simulations use 0 (its traces are reorder-free).
  sim::SimTime reorder_delay = sim::SimTime::zero();
  ExpeditionPolicy policy = ExpeditionPolicy::kMostRecent;
  /// Per-source requestor/replier cache: replacement policy, capacity and
  /// policy-specific knobs (cache_policy.hpp). The default is the paper's
  /// recency scheme with capacity 16 — the evaluated most-recent policy
  /// needs only 1; larger values feed the most-frequent policy and the
  /// cache-size ablation.
  CacheConfig cache;
  /// §3.3 router-assisted local recovery: expedited replies are unicast to
  /// the cached turning-point router and subcast downstream.
  bool router_assist = false;
};

class CesrmAgent : public srm::SrmAgent {
 public:
  CesrmAgent(sim::Simulator& sim, net::Transport& network, net::NodeId self,
             net::NodeId primary_source, const CesrmConfig& config,
             util::Rng rng);

  /// The requestor/replier cache for `source`'s stream (created lazily on
  /// first access; empty until a loss of that stream is recovered).
  const RecoveryCache& cache(net::NodeId source) const;
  /// Primary-stream convenience accessor.
  const RecoveryCache& cache() const { return cache(primary_source()); }

  const CesrmConfig& cesrm_config() const { return cesrm_config_; }

  /// Cache-effectiveness counters summed over all per-source caches.
  CacheStats cache_stats() const;

  /// Base finalization plus folding cache_stats() into HostStats.
  void finalize_stats() override;

  /// Base clearing plus dropping the per-source caches and the lost-ever
  /// ledger (their effectiveness counters are folded into a retired
  /// accumulator first, so cache_stats() keeps accounting across a crash).
  void clear_volatile_recovery_state() override;

  /// Journal replay (while still failed, before recover()): re-admits a
  /// pre-crash cache tuple into `source`'s requestor/replier cache and
  /// re-marks its packet in the lost-ever ledger (§3.1: only packets this
  /// host lost are cacheable — a journaled tuple proves it did). A seq
  /// beyond the ingress window is dropped and counted in
  /// HostStats::seq_beyond_window.
  void restore_cache_tuple(net::NodeId source, const RecoveryTuple& tuple);

 protected:
  void on_loss_detected(WantState& want) override;
  void on_reply_observed(const net::Packet& pkt) override;
  void on_exp_request(const net::Packet& pkt) override;
  void on_packet_available(net::NodeId source, net::SeqNo seq) override;

 private:
  void exp_timer_fired(net::NodeId source, net::SeqNo seq);
  RecoveryCache& mutable_cache(net::NodeId source);
  /// True when this host ever detected the loss of (`source`, `seq`) —
  /// §3.1: replies for packets we did not lose leave the cache untouched.
  bool lost_ever(net::NodeId source, net::SeqNo seq) const;
  void mark_lost_ever(net::NodeId source, net::SeqNo seq);

  CesrmConfig cesrm_config_;
  /// §3.1: "each host maintains a collection of per-source
  /// requestor/replier caches, one for each source from which it receives
  /// packets".
  mutable std::map<net::NodeId, RecoveryCache> caches_;
  /// The lost-ever ledger: per source, bit `seq` is set once this host
  /// detected that packet's loss. Both writers take only seqs inside the
  /// ingress window (srm::kSeqWindow), which bounds each vector's length.
  std::map<net::NodeId, std::vector<bool>> lost_ever_;
  /// Counters of caches dropped by crash-clearing, so cache_stats() stays
  /// a whole-lifetime aggregate across restarts.
  CacheStats retired_cache_stats_;
};

}  // namespace cesrm::cesrm
