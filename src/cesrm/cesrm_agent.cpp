#include "cesrm/cesrm_agent.hpp"

#include "obs/trace_recorder.hpp"
#include "srm/durable_sink.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace cesrm::cesrm {

CesrmAgent::CesrmAgent(sim::Simulator& sim, net::Transport& network,
                       net::NodeId self, net::NodeId primary_source,
                       const CesrmConfig& config, util::Rng rng)
    : SrmAgent(sim, network, self, primary_source, config.srm, rng),
      cesrm_config_(config) {}

RecoveryCache& CesrmAgent::mutable_cache(net::NodeId source) {
  auto it = caches_.find(source);
  if (it == caches_.end())
    it = caches_
             .emplace(source,
                      RecoveryCache(cesrm_config_.cache, node(), source))
             .first;
  return it->second;
}

CacheStats CesrmAgent::cache_stats() const {
  CacheStats total = retired_cache_stats_;
  for (const auto& [source, cache] : caches_) total += cache.stats();
  return total;
}

void CesrmAgent::clear_volatile_recovery_state() {
  SrmAgent::clear_volatile_recovery_state();
  for (const auto& [source, cache] : caches_)
    retired_cache_stats_ += cache.stats();
  caches_.clear();
  lost_ever_.clear();
}

void CesrmAgent::restore_cache_tuple(net::NodeId source,
                                     const RecoveryTuple& tuple) {
  CESRM_CHECK_MSG(failed(), "restore_cache_tuple() outside crash recovery");
  if (originates(source)) return;
  // Never trust journal bytes: CachePolicy::update CHECKs these, so a
  // tuple a damaged journal smuggled past the CRC must be dropped here.
  if (tuple.seq < 0 || tuple.requestor == net::kInvalidNode ||
      tuple.replier == net::kInvalidNode)
    return;
  // A journal written against a different group layout (or by a buggy
  // writer) can name nodes this tree does not have; distance queries and
  // unicasts against them would abort the run, so drop such tuples —
  // degrading toward a cold restart, as everywhere else in replay.
  const auto nodes = static_cast<net::NodeId>(net_.tree().size());
  if (source < 0 || source >= nodes || tuple.replier < 0 ||
      tuple.replier >= nodes)
    return;
  if (tuple.replier == node()) return;  // we cannot serve our own repairs
  lost_ever_[source].insert(tuple.seq);
  // Re-anchor the requestor to the restarting member. The durable value of
  // a cached tuple is ⟨replier, d̂rq⟩ — who can serve repairs, and how
  // close they are. The journaled requestor is whoever won the request
  // race before the crash; post-restart catch-up losses are private to
  // this member, so waiting for that member (which is not missing the
  // packets) to expedite would forfeit the warm cache entirely. With the
  // requestor re-anchored, on_loss_detected's requestor==self condition
  // holds and catch-up steers expedited requests at the cached replier.
  RecoveryTuple anchored = tuple;
  anchored.requestor = node();
  anchored.dist_requestor_source = distance_to(source);
  // The journaled d̂rq was measured between the *original* pair; what the
  // expedited send path needs now is the replier's distance to us, which
  // the retained session state estimates directly. Admit the tuple only
  // when that replier is no farther than the source: a replier beyond the
  // source cannot beat the plain SRM race toward it, so expediting there
  // would add traffic and reorder-delay for a slower repair.
  anchored.dist_replier_requestor = distance_to(tuple.replier);
  if (anchored.dist_replier_requestor > anchored.dist_requestor_source)
    return;
  mutable_cache(source).update(anchored);
}

void CesrmAgent::finalize_stats() {
  SrmAgent::finalize_stats();
  const CacheStats total = cache_stats();
  stats_.cache_hits = total.hits;
  stats_.cache_misses = total.misses;
  stats_.cache_insertions = total.insertions;
  stats_.cache_updates = total.updates;
  stats_.cache_evictions = total.evictions;
  stats_.cache_rejects = total.rejects;
}

const RecoveryCache& CesrmAgent::cache(net::NodeId source) const {
  return const_cast<CesrmAgent*>(this)->mutable_cache(source);
}

bool CesrmAgent::lost_ever(net::NodeId source, net::SeqNo seq) const {
  const auto it = lost_ever_.find(source);
  return it != lost_ever_.end() && it->second.count(seq) != 0;
}

void CesrmAgent::on_loss_detected(WantState& want) {
  lost_ever_[want.source].insert(want.seq);

  // Consult the lost packet's per-source cache: if the selected pair names
  // us as the expeditious requestor, arm the expedited request
  // (REORDER-DELAY in the future).
  const auto pair =
      mutable_cache(want.source).select(cesrm_config_.policy, want.seq);
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(),
              pair ? obs::EventKind::kCacheHit : obs::EventKind::kCacheMiss,
              node(), want.source, want.seq,
              pair ? pair->replier : net::kInvalidNode,
              pair && pair->requestor == node() ? 1 : 0);
  if (!pair || pair->requestor != node()) return;
  if (pair->replier == node() || pair->replier == net::kInvalidNode) return;

  want.exp_replier = pair->replier;
  want.exp_ann.requestor = node();
  want.exp_ann.dist_requestor_source = distance_to(want.source);
  want.exp_ann.replier = pair->replier;
  want.exp_ann.dist_replier_requestor = pair->dist_replier_requestor;
  want.exp_ann.turning_point = pair->turning_point;
  const net::NodeId source = want.source;
  const net::SeqNo seq = want.seq;
  want.exp_timer = std::make_unique<sim::Timer>(
      sim_, [this, source, seq] { exp_timer_fired(source, seq); });
  want.exp_timer->arm(cesrm_config_.reorder_delay);
}

void CesrmAgent::exp_timer_fired(net::NodeId source, net::SeqNo seq) {
  if (failed()) {
    ++stats_.zombie_timer_fires;
    return;
  }
  StreamState& s = stream(source);
  const auto it = s.want.find(seq);
  CESRM_CHECK_MSG(it != s.want.end(), "expedited timer for unknown loss");
  WantState& want = *it->second;
  CESRM_CHECK(!want.recovered);
  ++stats_.exp_requests_sent;
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kExpAttempt, node(), source, seq,
              want.exp_replier);
  net_.unicast(node(), net::make_exp_request_packet(
                           node(), want.exp_replier, source, seq,
                           want.exp_ann));
}

void CesrmAgent::on_packet_available(net::NodeId source, net::SeqNo seq) {
  // Nothing to do: the WantState — and with it any armed expedited-request
  // timer — was destroyed by mark_received(), which also counted the
  // cancellation in HostStats::exp_requests_cancelled.
  (void)source;
  (void)seq;
}

void CesrmAgent::on_reply_observed(const net::Packet& pkt) {
  // §3.1: replies update the cache only at hosts that suffered the loss.
  if (originates(pkt.source) || !lost_ever(pkt.source, pkt.seq)) return;
  if (pkt.ann.requestor == net::kInvalidNode ||
      pkt.ann.replier == net::kInvalidNode)
    return;
  RecoveryCache& cache = mutable_cache(pkt.source);
  const bool changed =
      cache.update(RecoveryTuple::from_annotation(pkt.seq, pkt.ann));
  if (!changed) return;
  if (auto* rec = sim_.recorder())
    // detail: per-source occupancy after the admit — the Chrome exporter
    // turns the series into a cache-pressure counter track.
    rec->emit(sim_.now(), obs::EventKind::kCacheStored, node(), pkt.source,
              pkt.seq, pkt.ann.replier,
              static_cast<std::int64_t>(cache.size()));
  if (durable_sink_)
    durable_sink_->on_cache_tuple(pkt.source, pkt.seq, pkt.ann);
}

void CesrmAgent::on_exp_request(const net::Packet& pkt) {
  CESRM_CHECK(pkt.dest == node());
  // The request tells us the packet exists even if we never saw it.
  if (!originates(pkt.source)) note_new_sequence(pkt.source, pkt.seq);

  if (!has_packet(pkt.source, pkt.seq))
    return;  // shared loss: expedited recovery fails

  ReplyState& rs = reply_state(pkt.source, pkt.seq);
  if (rs.scheduled || sim_.now() < rs.abstinence_until)
    return;  // a reply is already scheduled or pending (§3.2)

  if (note_already_served(pkt.source, pkt.seq, pkt.ann.requestor,
                          /*expedited=*/true)) {
    // Served before the crash: suppress the duplicate, observe abstinence
    // as if the expedited reply went out.
    rs.abstinence_until =
        sim_.now() + sim::SimTime::from_seconds(
                         config_.d3 * distance_to(pkt.ann.requestor));
    return;
  }

  net::RecoveryAnnotation ann;
  ann.requestor = pkt.ann.requestor;
  ann.dist_requestor_source = pkt.ann.dist_requestor_source;
  ann.replier = node();
  ann.dist_replier_requestor = distance_to(pkt.ann.requestor);
  ann.turning_point = pkt.ann.turning_point;

  ++stats_.exp_replies_sent;
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRepairSent, node(), pkt.source,
              pkt.seq, pkt.ann.requestor, /*detail=*/1);
  const net::Packet reply =
      net::make_exp_reply_packet(node(), pkt.source, pkt.seq, ann);
  // §3.3: localize the retransmission through the turning-point router
  // when router assistance is on (the shared Transport leg falls back to
  // plain multicast for an absent or root turning point).
  net_.send_reply_localized(node(),
                            cesrm_config_.router_assist
                                ? pkt.ann.turning_point
                                : net::kInvalidNode,
                            reply);
  if (durable_sink_)
    durable_sink_->on_reply_served(pkt.source, pkt.seq, pkt.ann.requestor,
                                   /*expedited=*/true);
  // Sending a reply starts the reply abstinence period.
  rs.abstinence_until =
      sim_.now() + sim::SimTime::from_seconds(
                       config_.d3 * distance_to(pkt.ann.requestor));
}

}  // namespace cesrm::cesrm
