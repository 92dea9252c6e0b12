// causal.hpp — per-loss causal chains with exact phase attribution.
//
// The recovery timeline (timeline.hpp) says *how long* each recovery took;
// this layer says *where the time went*. analyze_causal() replays a
// recorded TraceEvent stream and, for every recovered loss, splits the
// recovery latency into named causal phases by locating the events that
// hand the recovery from one actor to the next:
//
//   reactive:   detect ──backoff──▶ own request sent ──request_wait──▶
//               reply scheduled at the eventual replier ──reply_wait──▶
//               repair sent ──repair_transit──▶ delivered
//   expedited:  detect ──reorder_wait──▶ expedited request sent
//               ──exp_transit──▶ expedited reply sent
//               ──repair_transit──▶ delivered
//
// Phase boundaries are monotone-clamped into [detect, recover]:
//
//   b_i = min(max(c_i, b_{i-1}), t_end)
//
// and a boundary whose witness event is missing (e.g. the member never
// sent its own request because foreign requests kept suppressing it, or
// another member's expedited repair outran ours) inherits the previous
// boundary, collapsing that phase to zero. The boundaries therefore
// telescope: for EVERY recovered loss the phase durations sum to exactly
// the recovery latency in integer nanoseconds — the reconciliation
// contract the `obs` test label asserts on faulted Table-1 runs.
//
// On top of the chains sit anomaly detectors (detect_anomalies): request /
// reply implosion, zombie recoveries (open forever at a live member),
// cache-hit-but-slower inversions, and tail outliers. Both chains and
// anomalies serialize to a machine-readable JSON report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/timeline.hpp"

namespace cesrm::obs {

/// Phase labels, in chain order. Reactive chains use kBackoff..kRepairTransit;
/// expedited chains use kReorderWait..kRepairTransit.
enum class Phase : std::uint8_t {
  kBackoff = 0,    ///< detect → first own multicast request
  kRequestWait,    ///< request in flight → reply scheduled at the replier
  kReplyWait,      ///< reply timer wait at the replier → repair sent
  kReorderWait,    ///< detect → own expedited request sent (REORDER-DELAY)
  kExpTransit,     ///< expedited request in flight → expedited reply sent
  kRepairTransit,  ///< repair in flight → delivered
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Stable snake_case phase name.
const char* phase_name(Phase phase);

/// Did the loss consult the recovery cache at detection, and what came back?
enum class CacheConsult : std::uint8_t {
  kNone = 0,  ///< no consult recorded (plain SRM, or pre-detection repair)
  kMiss,
  kHit,
};

/// One recovered loss with its latency split into causal phases.
struct CausalChain {
  LossLifecycle lifecycle;          ///< who/what/when (from the timeline)
  net::NodeId replier = net::kInvalidNode;  ///< sender of the winning repair
  CacheConsult cache = CacheConsult::kNone;
  std::int64_t latency_ns = 0;      ///< recover − detect
  /// Duration of each phase in ns, indexed by Phase; phases not on this
  /// chain's path are zero. Invariant: sum == latency_ns, exactly.
  std::int64_t phase_ns[kPhaseCount] = {};
  /// Group-wide pressure for this (source, seq): multicast requests and
  /// repairs sent by ANY member — the implosion detectors' input.
  int group_requests = 0;
  int group_replies = 0;
};

enum class AnomalyKind : std::uint8_t {
  kRequestImplosion = 0,  ///< suppression failed: too many requests for one loss
  kReplyImplosion,        ///< too many repairs multicast for one loss
  kZombieRecovery,        ///< loss still open at stream end at a live member
  kCacheInversion,        ///< cache-hit expedited recovery slower than the
                          ///< reactive median — caching made it worse
  kTailOutlier,           ///< latency far beyond the run's median
  kCount,
};

inline constexpr std::size_t kAnomalyKindCount =
    static_cast<std::size_t>(AnomalyKind::kCount);

/// Stable snake_case anomaly name.
const char* anomaly_kind_name(AnomalyKind kind);

/// One flagged pathology, pointing at the loss that exhibits it.
struct Anomaly {
  AnomalyKind kind = AnomalyKind::kCount;
  net::NodeId node = net::kInvalidNode;
  net::NodeId source = net::kInvalidNode;
  net::SeqNo seq = net::kNoSeq;
  double value = 0;      ///< the observation (count, or latency in ns)
  double threshold = 0;  ///< the limit it crossed
  std::string note;      ///< one human-readable sentence
};

/// The full forensic product of one recorded run.
struct CausalReport {
  RecoveryTimeline timeline;          ///< reconciliation totals + lifecycles
  std::vector<CausalChain> chains;    ///< recovered losses, detection order
  std::vector<Anomaly> anomalies;     ///< detection order within kind order
  std::int64_t median_latency_ns = 0;          ///< over all chains
  std::int64_t median_reactive_latency_ns = 0; ///< over reactive chains only
};

/// Folds one run's event stream (emission order) into chains and runs the
/// anomaly detectors.
CausalReport analyze_causal(std::span<const TraceEvent> events);

/// Machine-readable report: {"schema":"cesrm.causal.v1","summary":{...},
/// "chains":[...],"anomalies":[...]}. All durations are integer ns —
/// byte-identical across replays and worker counts.
void write_causal_report_json(std::ostream& os, const CausalReport& report);

}  // namespace cesrm::obs
