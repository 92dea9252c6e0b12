// fault_scheduler.hpp — applies a FaultPlan to one running simulation.
//
// The scheduler is the single point where declarative fault clauses turn
// into concrete simulator events and network hooks: crashes become
// fail()/recover() calls on the registered agents, outages toggle
// administrative link state, control-loss bursts chain a Gilbert–Elliott
// drop decision over the experiment's own loss model, and perturbation
// bursts install the duplication/jitter hook. All randomness (loss chains,
// duplication draws, post-recovery session offsets) comes from a private
// fork of the experiment seed, so a faulted run is exactly as reproducible
// as a fault-free one and independent of runner parallelism.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "srm/srm_agent.hpp"
#include "trace/gilbert_elliott.hpp"
#include "util/rng.hpp"

namespace cesrm::fault {

class FaultScheduler {
 public:
  /// `seed` drives the scheduler's private randomness; the same seed
  /// replays the same fault behaviour exactly.
  FaultScheduler(sim::Simulator& sim, net::Network& network, FaultPlan plan,
                 std::uint64_t seed);

  /// Registers the protocol agent attached at `node` (call for the source
  /// and every receiver); must precede install().
  void add_member(net::NodeId node, srm::SrmAgent* agent);

  /// Observer of a crash/recover event's member, invoked around the
  /// agent's own fail()/recover() transition.
  using CrashHook = std::function<void(net::NodeId, srm::SrmAgent&)>;

  /// Installs durable-state hooks (see src/durable): `on_crash` runs right
  /// after a member's fail() (drop the write-behind window, clear volatile
  /// state), `before_recover` right before its recover() (journal replay
  /// into the still-failed agent). Either may be null. The scheduler never
  /// depends on the durable library — it only offers the seams. Must
  /// precede install().
  void set_crash_hooks(CrashHook on_crash, CrashHook before_recover);

  /// Resolves the plan against the network's tree, schedules every fault
  /// event, and installs the drop/perturb hooks. `base_drop` is the
  /// experiment's own loss model, consulted only when no fault clause
  /// already drops the crossing. Call exactly once, before running.
  void install(net::DropFn base_drop);

  /// Earliest time the source may transmit given every SourcePause clause
  /// and source crash active now: now() when nothing blocks it, infinity()
  /// for a source crash-stop (a harness::ChainedSource hold).
  sim::SimTime source_resume_time() const;

  const FaultPlan& plan() const { return plan_; }
  /// The plan's crashes/outages resolved against the tree (populated by
  /// install()); the oracle keys its liveness bookkeeping off these.
  const std::vector<ResolvedCrash>& crashes() const { return crashes_; }
  const std::vector<ResolvedOutage>& outages() const { return outages_; }

 private:
  bool drop_control(const net::Packet& pkt);
  net::Perturbation perturb(const net::Packet& pkt);

  sim::Simulator& sim_;
  net::Network& net_;
  FaultPlan plan_;
  util::Rng rng_;
  std::map<net::NodeId, srm::SrmAgent*> members_;
  CrashHook on_crash_;
  CrashHook before_recover_;
  std::vector<ResolvedCrash> crashes_;
  std::vector<ResolvedOutage> outages_;
  std::vector<trace::GilbertElliott> control_chains_;  ///< one per burst
  bool installed_ = false;
};

}  // namespace cesrm::fault
