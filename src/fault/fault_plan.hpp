// fault_plan.hpp — declarative, deterministic fault scenarios.
//
// A FaultPlan is pure data: timed fault clauses expressed against a
// transmission's timeline and the tree's receiver *ranks* (indices into
// MulticastTree::receivers()), so one plan applies to any trace with
// enough receivers and rides inside ExperimentConfig through the parallel
// runner without losing determinism. Clauses cover the failure modes the
// §3.3 graceful-degradation argument hand-waves over:
//
//  * CrashEvent      — crash-stop or crash-recover of a member;
//  * LinkOutage      — a link down for an interval, including full
//                      partitions of a subtree (pick a height above the
//                      anchoring receiver);
//  * ControlLossBurst — extra Gilbert–Elliott loss on control/recovery
//                      traffic (requests, replies, expedited, session);
//  * SourcePause     — the source stops transmitting for an interval;
//  * PerturbBurst    — packet duplication and delay-jitter bursts.
//
// The FaultScheduler resolves and applies a plan to one concrete
// simulation; the InvariantOracle checks that recovery survives it. The
// shipped scenario builders encode the §3.3 claims as reusable plans.
#pragma once

#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace cesrm::fault {

/// Rank denoting the transmission source instead of a receiver.
inline constexpr int kSourceRank = -1;

/// Crash-stop (recover_at = infinity) or crash-recover of one member.
struct CrashEvent {
  int receiver_rank = 0;  ///< index into tree.receivers(); kSourceRank = source
  sim::SimTime at;
  sim::SimTime recover_at = sim::SimTime::infinity();
  bool recovers() const { return recover_at < sim::SimTime::infinity(); }
};

/// Takes a link down for an interval (up_at = infinity: never heals). The
/// link is named by a receiver rank plus a height: the edge above the
/// receiver's ancestor `height` levels up, clamped below the root — so
/// height 0 severs one receiver's access link and larger heights partition
/// whole subtrees.
struct LinkOutage {
  int receiver_rank = 0;
  int height = 0;
  sim::SimTime down_at;
  sim::SimTime up_at = sim::SimTime::infinity();
  bool heals() const { return up_at < sim::SimTime::infinity(); }
};

/// Extra Gilbert–Elliott loss applied to every non-data packet crossing
/// during [from, until) — the bursty control-plane loss SRM-lineage
/// deployments observed. Data packets keep replaying the trace untouched.
struct ControlLossBurst {
  sim::SimTime from;
  sim::SimTime until;
  double loss_rate = 0.25;  ///< stationary loss rate of the chain
  double mean_burst = 4.0;  ///< mean loss-burst length, packets
  bool include_session = true;
};

/// Stops the source from transmitting during [at, until); deferred
/// packets resume at `until`, spaced by the trace's period.
struct SourcePause {
  sim::SimTime at;
  sim::SimTime until;
};

/// Packet duplication and delay-jitter on every crossing in [from, until).
struct PerturbBurst {
  sim::SimTime from;
  sim::SimTime until;
  double dup_probability = 0.0;
  sim::SimTime max_extra_delay = sim::SimTime::zero();
};

struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<LinkOutage> outages;
  std::vector<ControlLossBurst> control_bursts;
  std::vector<SourcePause> pauses;
  std::vector<PerturbBurst> perturb_bursts;

  bool empty() const {
    return crashes.empty() && outages.empty() && control_bursts.empty() &&
           pauses.empty() && perturb_bursts.empty();
  }

  /// CHECKs clause sanity: rank/height bounds, interval ordering, rates.
  void validate() const;

  /// Extra simulated time a faulted run needs beyond the lossless horizon:
  /// deferred transmissions replay after pauses, recovered members catch
  /// up, and healed partitions leave request timers backed off by up to
  /// the outage length again.
  sim::SimTime horizon_slack() const;

  /// Compact one-line description for reproduction messages and reports.
  std::string summary() const;
};

// --- resolution against a concrete tree -----------------------------------

struct ResolvedCrash {
  net::NodeId node = net::kInvalidNode;
  sim::SimTime at;
  sim::SimTime recover_at = sim::SimTime::infinity();
  bool recovers() const { return recover_at < sim::SimTime::infinity(); }
};

struct ResolvedOutage {
  net::LinkId link = net::kInvalidLink;
  sim::SimTime down_at;
  sim::SimTime up_at = sim::SimTime::infinity();
  bool heals() const { return up_at < sim::SimTime::infinity(); }
};

/// Maps a rank to its member node; CHECK-fails on an out-of-range rank.
net::NodeId resolve_rank(int receiver_rank, const net::MulticastTree& tree);
ResolvedCrash resolve(const CrashEvent& crash, const net::MulticastTree& tree);
ResolvedOutage resolve(const LinkOutage& outage,
                       const net::MulticastTree& tree);

// --- shipped §3.3 graceful-degradation scenarios ---------------------------

/// Timeline anchors for the scenario builders: `receivers` members, data
/// flowing over [data_start, data_end).
struct ScenarioContext {
  int receivers = 0;
  sim::SimTime data_start;
  sim::SimTime data_end;
};

struct NamedPlan {
  std::string name;
  FaultPlan plan;
};

/// Crash-stops the last ceil(0.3 · R) receivers (at most R - 1) at the
/// midpoint — the cached-replier-dies churn scenario of bench_ablation's
/// churn axis.
FaultPlan replier_crash_plan(const ScenarioContext& ctx);
/// Partitions the subtree above receiver 0 for the middle ~15% of the
/// transmission, then heals it.
FaultPlan subtree_partition_plan(const ScenarioContext& ctx);
/// Pauses the source over [45%, 60%] of the transmission.
FaultPlan source_pause_plan(const ScenarioContext& ctx);
/// Bursty Gilbert–Elliott loss on all control traffic over [30%, 70%].
FaultPlan control_loss_plan(const ScenarioContext& ctx);
/// Crashes the last third of the receivers at 40% and recovers them at
/// 70%; they catch up on everything missed.
FaultPlan crash_recover_plan(const ScenarioContext& ctx);
/// Packet duplication (5%) plus delay jitter over the middle half.
FaultPlan duplication_jitter_plan(const ScenarioContext& ctx);

/// The shipped scenarios in bench/report order: replier crash, subtree
/// partition + heal, source pause, control-loss burst, crash-recover,
/// duplication + jitter.
std::vector<NamedPlan> shipped_scenarios(const ScenarioContext& ctx);

}  // namespace cesrm::fault
