// experiment.hpp — trace-driven protocol experiments (§4.3).
//
// run_experiment() reenacts one IP multicast transmission: it builds the
// trace's tree and network, attaches an SRM or CESRM agent at the source
// and at every receiver (a harness::Group), lets the members exchange
// session messages for a warm-up period (so distance estimates converge
// before data flows, as in the paper), then transmits the packets at the
// trace's period while the
// network drops each data packet on exactly the links the link trace
// representation names. Recovery traffic is lossless by default; the
// lossy-recovery mode drops it randomly according to the per-link loss
// estimates (the paper's robustness remark in §4.3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "durable/store.hpp"
#include "fault/fault_plan.hpp"
#include "harness/group.hpp"
#include "infer/link_trace.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "protocol.hpp"
#include "srm/srm_agent.hpp"
#include "trace/loss_trace.hpp"

namespace cesrm::harness {

struct ExperimentConfig {
  Protocol protocol = Protocol::kCesrm;
  cesrm::CesrmConfig cesrm;  ///< cesrm.srm also configures plain SRM runs
  net::NetworkConfig network;
  std::uint64_t seed = 1;
  /// Session-only warm-up before the first data packet (§4.3: receivers
  /// estimate distances before the transmission begins).
  sim::SimTime warmup = sim::SimTime::seconds(5);
  /// Extra simulated time after the last data packet for recoveries of
  /// tail losses to complete.
  sim::SimTime drain = sim::SimTime::seconds(30);
  /// When true, recovery packets (requests/replies, expedited or not) are
  /// also dropped, independently per link crossing, with the link's
  /// estimated loss rate. Data-packet losses always replay the trace.
  bool lossy_recovery = false;
  /// Optional cap on the number of data packets simulated (0 = full
  /// trace); used by quick examples and smoke tests.
  net::SeqNo max_packets = 0;
  /// Deterministic fault scenario applied to the run (empty = fault-free;
  /// an empty plan leaves behaviour byte-identical to a build without the
  /// fault subsystem). A non-empty plan also arms the InvariantOracle:
  /// liveness/safety violations throw util::CheckError, prefixed with a
  /// reproduction line naming trace, seed, protocol, and plan.
  fault::FaultPlan faults;
  /// Durable recovery state (src/durable): off (default; behaviour and
  /// artifacts byte-identical to a build without the subsystem), cold
  /// (crashes clear volatile recovery state, nothing journaled), or warm
  /// (write-behind journal + replay at recover for a warm rejoin with
  /// exactly-once retransmissions).
  durable::DurableConfig durable;
  /// Observability switches (all off by default — the protocol hooks then
  /// compile down to a null-pointer check and the run's behaviour and
  /// output are identical to a build without the obs subsystem).
  obs::ObsConfig observe;
};

struct ExperimentResult {
  std::string trace_name;
  Protocol protocol = Protocol::kSrm;
  std::vector<MemberResult> members;
  net::CrossingStats crossings;
  std::uint64_t events_executed = 0;
  sim::SimTime sim_end;
  net::SeqNo packets_sent = 0;
  /// Captured protocol-event trace (only when config.observe.trace; shared
  /// so copies of the result stay cheap). Null when tracing was off.
  std::shared_ptr<const std::vector<obs::TraceEvent>> events;
  /// Named counters/gauges/histograms (only when config.observe.metrics;
  /// empty otherwise). Deterministic: keyed by sim-time quantities only.
  obs::MetricsSnapshot metrics;
  /// Constant-memory telemetry sketch (only when config.observe.stream):
  /// latency/wait histograms and heavy-hitter links folded during the run
  /// in O(buckets) space, independent of event count. Null otherwise.
  std::shared_ptr<const obs::StreamingSketch> sketch;
  /// Wall seconds spent per completed sim-second (only when
  /// config.observe.profile). Wall-clock — never exported to artifacts.
  std::vector<double> wall_profile;

  const MemberResult& source() const { return members.front(); }
  /// Receivers only — a zero-copy view over members[1..] (members are
  /// ordered source first, so the view is exactly the non-source tail).
  std::span<const MemberResult> receivers() const {
    return std::span<const MemberResult>(members).subspan(1);
  }

  // --- aggregate convenience accessors used by reports and tests ---
  std::uint64_t total_losses_detected() const;
  /// Losses repaired by a retransmission before the loser noticed the gap;
  /// total_losses_detected() + total_silent_repairs() equals the number of
  /// data packets the trace withheld from receivers.
  std::uint64_t total_silent_repairs() const;
  std::uint64_t total_recovered() const;
  std::uint64_t total_unrecovered() const;
  std::uint64_t total_requests_sent() const;
  std::uint64_t total_replies_sent() const;
  std::uint64_t total_exp_requests_sent() const;
  std::uint64_t total_exp_replies_sent() const;
  /// Mean of per-recovery latencies normalized by the recovering
  /// receiver's RTT to the source, over all receivers.
  double mean_normalized_recovery_time() const;
};

/// Runs one protocol over one trace. `link_trace` must be built from the
/// same LossTrace.
ExperimentResult run_experiment(const trace::LossTrace& loss_trace,
                                const infer::LinkTraceRepresentation& links,
                                const ExperimentConfig& config);

}  // namespace cesrm::harness
