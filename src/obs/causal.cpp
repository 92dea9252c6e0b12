#include "obs/causal.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "util/json.hpp"

namespace cesrm::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kBackoff: return "backoff";
    case Phase::kRequestWait: return "request_wait";
    case Phase::kReplyWait: return "reply_wait";
    case Phase::kReorderWait: return "reorder_wait";
    case Phase::kExpTransit: return "exp_transit";
    case Phase::kRepairTransit: return "repair_transit";
    case Phase::kCount: break;
  }
  return "unknown";
}

const char* anomaly_kind_name(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kRequestImplosion: return "request_implosion";
    case AnomalyKind::kReplyImplosion: return "reply_implosion";
    case AnomalyKind::kZombieRecovery: return "zombie_recovery";
    case AnomalyKind::kCacheInversion: return "cache_inversion";
    case AnomalyKind::kTailOutlier: return "tail_outlier";
    case AnomalyKind::kCount: break;
  }
  return "unknown";
}

namespace {

// Anomaly thresholds, deliberately loose: they flag pathologies, not
// noise.
constexpr int kRequestImplosionLimit = 8;  ///< group requests per loss
constexpr int kReplyImplosionLimit = 4;    ///< group repairs per loss
constexpr double kInversionMultiplier = 1.5;  ///< × reactive median latency
constexpr double kTailMultiplier = 8.0;       ///< × overall median latency

using LossKey = std::tuple<net::NodeId, net::NodeId, net::SeqNo>;
using GroupKey = std::pair<net::NodeId, net::SeqNo>;  // (source, seq)

/// Sim streams are emitted in time order, so these stay sorted by
/// construction — boundary lookups are binary searches.
struct EventIndex {
  /// kRepairScheduled times at (replier, source, seq).
  std::map<LossKey, std::vector<sim::SimTime>> repair_scheduled;
  /// kRepairSent at (replier, source, seq): time + expedited flag.
  std::map<LossKey, std::vector<std::pair<sim::SimTime, bool>>> repair_sent;
  /// kExpAttempt times at (requestor, source, seq).
  std::map<LossKey, std::vector<sim::SimTime>> exp_attempt;
  /// Last cache consult at (node, source, seq) at or before a given time.
  std::map<LossKey, std::vector<std::pair<sim::SimTime, bool>>> cache_consult;
  /// Closing-event peer (the repair's sender), keyed by the closing
  /// (node, source, seq) and time — the lifecycle's recover_time matches.
  std::map<std::pair<LossKey, std::int64_t>, net::NodeId> closing_peer;
  /// Group-wide counts per (source, seq).
  std::map<GroupKey, int> group_requests;
  std::map<GroupKey, int> group_replies;
  /// Members crashed (and not yet recovered) when the stream ended.
  std::set<net::NodeId> crashed_at_end;
  sim::SimTime stream_end;
};

EventIndex build_index(std::span<const TraceEvent> events) {
  EventIndex ix;
  for (const TraceEvent& e : events) {
    ix.stream_end = std::max(ix.stream_end, e.at);
    switch (e.kind) {
      case EventKind::kRequestSent:
        ++ix.group_requests[{e.source, e.seq}];
        break;
      case EventKind::kRepairScheduled:
        ix.repair_scheduled[{e.node, e.source, e.seq}].push_back(e.at);
        break;
      case EventKind::kRepairSent:
        ix.repair_sent[{e.node, e.source, e.seq}].emplace_back(e.at,
                                                               e.detail == 1);
        ++ix.group_replies[{e.source, e.seq}];
        break;
      case EventKind::kExpAttempt:
        ix.exp_attempt[{e.node, e.source, e.seq}].push_back(e.at);
        break;
      case EventKind::kCacheHit:
      case EventKind::kCacheMiss:
        ix.cache_consult[{e.node, e.source, e.seq}].emplace_back(
            e.at, e.kind == EventKind::kCacheHit);
        break;
      case EventKind::kExpSuccess:
      case EventKind::kExpFallback:
      case EventKind::kRecovered:
        ix.closing_peer[{{e.node, e.source, e.seq}, e.at.ns()}] = e.peer;
        break;
      case EventKind::kFaultApplied:
        if (e.detail == kFaultCrash) ix.crashed_at_end.insert(e.node);
        if (e.detail == kFaultRecover) ix.crashed_at_end.erase(e.node);
        break;
      default:
        break;
    }
  }
  return ix;
}

/// Earliest time in `v` within (after, at_most], or infinity.
sim::SimTime first_in(const std::vector<sim::SimTime>* v, sim::SimTime after,
                      sim::SimTime at_most) {
  if (!v) return sim::SimTime::infinity();
  auto it = std::upper_bound(v->begin(), v->end(), after);
  if (it == v->end() || *it > at_most) return sim::SimTime::infinity();
  return *it;
}

/// Latest time in `v` at or before `at_most`, or infinity when none.
sim::SimTime last_at_or_before(const std::vector<sim::SimTime>* v,
                               sim::SimTime at_most) {
  if (!v) return sim::SimTime::infinity();
  auto it = std::upper_bound(v->begin(), v->end(), at_most);
  if (it == v->begin()) return sim::SimTime::infinity();
  return *std::prev(it);
}

template <typename M>
const typename M::mapped_type* find_ptr(const M& m,
                                        const typename M::key_type& k) {
  auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}

/// The monotone clamp: every candidate is forced into [prev, t_end], and a
/// missing candidate (infinity) inherits prev — so consecutive boundaries
/// telescope to exactly t_end − t0 regardless of which witnesses exist.
sim::SimTime clamp_boundary(sim::SimTime candidate, sim::SimTime prev,
                            sim::SimTime t_end) {
  if (candidate == sim::SimTime::infinity()) return prev;
  return std::min(std::max(candidate, prev), t_end);
}

void attribute_phases(CausalChain& chain, const EventIndex& ix) {
  const LossLifecycle& lc = chain.lifecycle;
  const sim::SimTime t0 = lc.detect_time;
  const sim::SimTime t_end = lc.recover_time;
  const LossKey replier_key{chain.replier, lc.source, lc.seq};

  const auto set_phase = [&](Phase p, sim::SimTime from, sim::SimTime to) {
    chain.phase_ns[static_cast<std::size_t>(p)] = (to - from).ns();
  };

  if (lc.expedited) {
    // detect → own expedited request → expedited reply → delivery. The
    // attempt may belong to another member whose expedited reply we
    // overheard (router-assist subcast); then both witnesses are foreign
    // and the whole latency lands in repair_transit.
    const sim::SimTime b1 = clamp_boundary(
        first_in(find_ptr(ix.exp_attempt, {lc.node, lc.source, lc.seq}), t0,
                 t_end),
        t0, t_end);
    sim::SimTime sent = sim::SimTime::infinity();
    if (const auto* v = find_ptr(ix.repair_sent, replier_key)) {
      for (const auto& [at, expedited] : *v) {
        if (at > t_end) break;
        if (expedited) sent = at;  // latest expedited send ≤ delivery
      }
    }
    const sim::SimTime b2 = clamp_boundary(sent, b1, t_end);
    set_phase(Phase::kReorderWait, t0, b1);
    set_phase(Phase::kExpTransit, b1, b2);
    set_phase(Phase::kRepairTransit, b2, t_end);
    return;
  }

  // Reactive: detect → own first request → reply scheduled at the replier
  // → repair sent → delivery. first_request_time is already windowed to
  // this lifecycle by the timeline reconstruction; it is infinity when
  // foreign requests suppressed us throughout (backoff collapses to 0 and
  // the wait is attributed downstream, where the recovery actually ran).
  const sim::SimTime b1 = clamp_boundary(lc.first_request_time, t0, t_end);
  sim::SimTime sent = sim::SimTime::infinity();
  if (const auto* v = find_ptr(ix.repair_sent, replier_key)) {
    for (const auto& [at, expedited] : *v) {
      if (at > t_end) break;
      sent = at;
      (void)expedited;  // a fallback may still ride an expedited reply
    }
  }
  const sim::SimTime b2 = clamp_boundary(
      last_at_or_before(find_ptr(ix.repair_scheduled, replier_key),
                        sent == sim::SimTime::infinity() ? t_end : sent),
      b1, t_end);
  const sim::SimTime b3 = clamp_boundary(sent, b2, t_end);
  set_phase(Phase::kBackoff, t0, b1);
  set_phase(Phase::kRequestWait, b1, b2);
  set_phase(Phase::kReplyWait, b2, b3);
  set_phase(Phase::kRepairTransit, b3, t_end);
}

std::int64_t median_ns(std::vector<std::int64_t> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

std::string implosion_note(const char* what, int count, int limit) {
  std::ostringstream os;
  os << count << ' ' << what << " for one loss (limit " << limit
     << "): suppression is not converging";
  return os.str();
}

}  // namespace

CausalReport analyze_causal(std::span<const TraceEvent> events) {
  CausalReport report;
  report.timeline = reconstruct_timeline(events);
  const EventIndex ix = build_index(events);

  for (const LossLifecycle& lc : report.timeline.lifecycles) {
    if (lc.outcome != LossOutcome::kRecovered) continue;
    CausalChain chain;
    chain.lifecycle = lc;
    chain.latency_ns = (lc.recover_time - lc.detect_time).ns();
    if (const auto* peer = find_ptr(
            ix.closing_peer,
            {{lc.node, lc.source, lc.seq}, lc.recover_time.ns()}))
      chain.replier = *peer;
    if (const auto* consults =
            find_ptr(ix.cache_consult, {lc.node, lc.source, lc.seq})) {
      // The consult happens at detection; take the last one in the window.
      for (const auto& [at, hit] : *consults) {
        if (at < lc.detect_time || at > lc.recover_time) continue;
        chain.cache = hit ? CacheConsult::kHit : CacheConsult::kMiss;
      }
    }
    if (const auto* n = find_ptr(ix.group_requests, {lc.source, lc.seq}))
      chain.group_requests = *n;
    if (const auto* n = find_ptr(ix.group_replies, {lc.source, lc.seq}))
      chain.group_replies = *n;
    attribute_phases(chain, ix);
    report.chains.push_back(std::move(chain));
  }

  std::vector<std::int64_t> all, reactive;
  for (const CausalChain& c : report.chains) {
    all.push_back(c.latency_ns);
    if (!c.lifecycle.expedited) reactive.push_back(c.latency_ns);
  }
  report.median_latency_ns = median_ns(std::move(all));
  report.median_reactive_latency_ns = median_ns(std::move(reactive));

  // --- Detectors. Emitted grouped by kind, detection order within each —
  // a deterministic order that reads well in reports.
  const auto flag = [&](AnomalyKind kind, net::NodeId node, net::NodeId source,
                        net::SeqNo seq, double value, double threshold,
                        std::string note) {
    report.anomalies.push_back(
        {kind, node, source, seq, value, threshold, std::move(note)});
  };

  // Implosions are per (source, seq) group pathologies: flag each once, at
  // the first chain that exhibits the group.
  std::set<GroupKey> flagged_req, flagged_rep;
  for (const CausalChain& c : report.chains) {
    const GroupKey g{c.lifecycle.source, c.lifecycle.seq};
    if (c.group_requests >= kRequestImplosionLimit &&
        flagged_req.insert(g).second)
      flag(AnomalyKind::kRequestImplosion, c.lifecycle.node, g.first, g.second,
           c.group_requests, kRequestImplosionLimit,
           implosion_note("multicast requests", c.group_requests,
                          kRequestImplosionLimit));
    if (c.group_replies >= kReplyImplosionLimit &&
        flagged_rep.insert(g).second)
      flag(AnomalyKind::kReplyImplosion, c.lifecycle.node, g.first, g.second,
           c.group_replies, kReplyImplosionLimit,
           implosion_note("repairs", c.group_replies,
                          kReplyImplosionLimit));
  }

  // Zombie recoveries: a loss still open when the stream ended at a member
  // that is alive — the recovery machinery stalled, not the member.
  for (const LossLifecycle& lc : report.timeline.lifecycles) {
    if (lc.outcome != LossOutcome::kOpen) continue;
    if (ix.crashed_at_end.count(lc.node)) continue;
    const double age = static_cast<double>((ix.stream_end - lc.detect_time).ns());
    std::ostringstream note;
    note << "loss open for " << (ix.stream_end - lc.detect_time).to_millis()
         << " ms at a live member when the run ended";
    flag(AnomalyKind::kZombieRecovery, lc.node, lc.source, lc.seq, age, 0,
         note.str());
  }

  // Cache inversions: an expedited recovery that consulted the cache, hit,
  // and STILL came in slower than the reactive median — the cached pair
  // pointed somewhere worse than the plain SRM race.
  if (report.median_reactive_latency_ns > 0) {
    const double limit = kInversionMultiplier *
                         static_cast<double>(report.median_reactive_latency_ns);
    for (const CausalChain& c : report.chains) {
      if (!c.lifecycle.expedited || c.cache != CacheConsult::kHit) continue;
      if (static_cast<double>(c.latency_ns) <= limit) continue;
      std::ostringstream note;
      note << "cache-hit expedited recovery took "
           << static_cast<double>(c.latency_ns) / 1e6
           << " ms vs reactive median "
           << static_cast<double>(report.median_reactive_latency_ns) / 1e6
           << " ms";
      flag(AnomalyKind::kCacheInversion, c.lifecycle.node, c.lifecycle.source,
           c.lifecycle.seq, static_cast<double>(c.latency_ns), limit,
           note.str());
    }
  }

  // Tail outliers against the overall median.
  if (report.median_latency_ns > 0) {
    const double limit = kTailMultiplier *
                         static_cast<double>(report.median_latency_ns);
    for (const CausalChain& c : report.chains) {
      if (static_cast<double>(c.latency_ns) <= limit) continue;
      std::ostringstream note;
      note << "latency " << static_cast<double>(c.latency_ns) / 1e6
           << " ms is over " << kTailMultiplier << "x the median";
      flag(AnomalyKind::kTailOutlier, c.lifecycle.node, c.lifecycle.source,
           c.lifecycle.seq, static_cast<double>(c.latency_ns), limit,
           note.str());
    }
  }

  // Group for stable reading order; std::stable_sort keeps detection order
  // within a kind.
  std::stable_sort(report.anomalies.begin(), report.anomalies.end(),
                   [](const Anomaly& a, const Anomaly& b) {
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return report;
}

void write_causal_report_json(std::ostream& os, const CausalReport& report) {
  os << "{\"schema\":\"cesrm.causal.v1\",\"summary\":{"
     << "\"losses\":" << report.timeline.losses
     << ",\"recovered\":" << report.timeline.recovered
     << ",\"unrecovered\":" << report.timeline.unrecovered
     << ",\"abandoned\":" << report.timeline.abandoned
     << ",\"expedited\":" << report.timeline.expedited_successes
     << ",\"median_latency_ns\":" << report.median_latency_ns
     << ",\"median_reactive_latency_ns\":" << report.median_reactive_latency_ns
     << ",\"anomalies\":" << report.anomalies.size() << "},\n\"chains\":[";
  bool first = true;
  for (const CausalChain& c : report.chains) {
    if (!first) os << ',';
    first = false;
    const LossLifecycle& lc = c.lifecycle;
    os << "\n{\"node\":" << lc.node << ",\"source\":" << lc.source
       << ",\"seq\":" << lc.seq << ",\"detect_ns\":" << lc.detect_time.ns()
       << ",\"latency_ns\":" << c.latency_ns
       << ",\"expedited\":" << (lc.expedited ? "true" : "false")
       << ",\"replier\":" << c.replier << ",\"cache\":\""
       << (c.cache == CacheConsult::kHit
               ? "hit"
               : c.cache == CacheConsult::kMiss ? "miss" : "none")
       << "\",\"requests\":" << lc.requests
       << ",\"suppressions\":" << lc.suppressions
       << ",\"group_requests\":" << c.group_requests
       << ",\"group_replies\":" << c.group_replies << ",\"phases\":{";
    bool pf = true;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (c.phase_ns[p] == 0) continue;  // off-path phases stay implicit
      if (!pf) os << ',';
      pf = false;
      os << '"' << phase_name(static_cast<Phase>(p)) << "\":" << c.phase_ns[p];
    }
    os << "}}";
  }
  os << "],\n\"anomalies\":[";
  first = true;
  for (const Anomaly& a : report.anomalies) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"kind\":\"" << anomaly_kind_name(a.kind)
       << "\",\"node\":" << a.node << ",\"source\":" << a.source
       << ",\"seq\":" << a.seq << ",\"value\":";
    util::json_double(os, a.value);
    os << ",\"threshold\":";
    util::json_double(os, a.threshold);
    os << ",\"note\":";
    util::json_escape(os, a.note);
    os << '}';
  }
  os << "]}\n";
}

}  // namespace cesrm::obs
