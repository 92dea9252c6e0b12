// oracle.hpp — liveness/safety oracle for fault-injected runs.
//
// The InvariantOracle turns the §3.3 graceful-degradation claims into
// checkable invariants over one simulation:
//
//  * liveness — recovery of every outstanding loss at a live member keeps
//    making progress. Each protocol keeps exactly one armed recovery timer
//    per outstanding loss (SRM and CESRM the request timer, LMS the retry
//    timer), so "some want has no armed timer" (SrmAgent::stalled_losses)
//    is an exact, cheap stall detector; a periodic watchdog checks it
//    throughout the run, catching stalls even though session timers keep
//    the event queue non-empty forever;
//  * safety (crash isolation) — no timer callback ever runs on a crashed
//    member (HostStats::zombie_timer_fires stays zero);
//  * eventual delivery — at the end of the run every live member holds
//    every packet that any live member holds (a permanent loss is
//    legitimate only when every holder crashed);
//  * cache freshness — a live CESRM member's cache may keep electing a
//    crashed replier only transiently: once more than a bounded number of
//    SRM fallback recoveries have completed after the crash (each reply
//    re-seeds the cache with a live pair, §3.3), still naming the dead
//    replier is a violation.
//
// Violations throw util::CheckError naming the invariant, the member, and
// the simulated time, so the harness can prepend its reproduction line.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "srm/srm_agent.hpp"

namespace cesrm::fault {

class InvariantOracle {
 public:
  struct Options {
    sim::SimTime watchdog_period = sim::SimTime::seconds(5);
    /// A live CESRM cache may keep naming a crashed replier only while at
    /// most this many SRM fallback recoveries have re-seeded it since the
    /// crash (cache capacity plus slack for in-flight replies).
    std::uint64_t cache_staleness_bound = 24;
  };

  InvariantOracle(sim::Simulator& sim, const net::MulticastTree& tree,
                  Options options);
  InvariantOracle(sim::Simulator& sim, const net::MulticastTree& tree)
      : InvariantOracle(sim, tree, Options()) {}

  /// Registers a member to watch; call for the source and every receiver.
  void add_member(net::NodeId node, const srm::SrmAgent* agent);
  /// Tells the oracle about a scheduled crash (from FaultScheduler).
  void note_crash(const ResolvedCrash& crash);

  /// Arms the periodic liveness watchdog, active until `horizon`.
  void start(sim::SimTime horizon);

  /// End-of-run verdict; call after the simulation drains and *before*
  /// SrmAgent::finalize_stats() (which clears the want state the stall
  /// check inspects). `packets_sent` is the number of data packets the
  /// primary `source` actually originated. Throws util::CheckError on any
  /// violated invariant.
  void finish(net::SeqNo packets_sent, net::NodeId source) const;

  std::uint64_t watchdog_checks() const { return watchdog_checks_; }

 private:
  void watchdog_fired();
  void check_stalls() const;

  sim::Simulator& sim_;
  const net::MulticastTree& tree_;
  Options options_;
  std::vector<net::NodeId> nodes_;
  std::vector<const srm::SrmAgent*> agents_;
  std::vector<ResolvedCrash> crashes_;
  std::unique_ptr<sim::Timer> watchdog_;
  sim::SimTime horizon_;
  std::uint64_t watchdog_checks_ = 0;
};

}  // namespace cesrm::fault
