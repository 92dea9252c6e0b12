// Tests for the observability subsystem: trace recording, recovery-timeline
// reconstruction (and its exact reconciliation with HostStats aggregates),
// causal phase attribution (and its exact phase-sum contract), anomaly
// detectors, the constant-memory streaming sketches, the JSONL reader,
// metrics registry/merging, exporters, and the shared JSON helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_recorder.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace cesrm::obs {
namespace {

using sim::SimTime;

// ------------------------------------------------------- timeline (unit) ---

TraceEvent ev(double at_s, EventKind kind, net::NodeId node,
              net::NodeId source = 0, net::SeqNo seq = 0,
              net::NodeId peer = net::kInvalidNode, std::int64_t detail = 0,
              std::int64_t aux = 0) {
  return TraceEvent{SimTime::from_seconds(at_s), kind, node, source,
                    seq,  peer,                  detail, aux};
}

std::int64_t ns(double seconds) { return SimTime::from_seconds(seconds).ns(); }

std::int64_t phase_sum(const CausalChain& c) {
  std::int64_t sum = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) sum += c.phase_ns[p];
  return sum;
}

std::int64_t phase(const CausalChain& c, Phase p) {
  return c.phase_ns[static_cast<std::size_t>(p)];
}

TEST(Timeline, ReactiveRecoveryLifecycle) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.0, EventKind::kRequestScheduled, 3, 0, 7),
      ev(1.2, EventKind::kRequestSent, 3, 0, 7),
      ev(1.3, EventKind::kRequestSuppressed, 3, 0, 7),
      ev(1.8, EventKind::kRecovered, 3, 0, 7, 5),
      ev(2.0, EventKind::kDuplicateRepair, 3, 0, 7, 4),
  };
  const RecoveryTimeline tl = reconstruct_timeline(events);
  ASSERT_EQ(tl.lifecycles.size(), 1u);
  const LossLifecycle& lc = tl.lifecycles[0];
  EXPECT_EQ(lc.node, 3);
  EXPECT_EQ(lc.source, 0);
  EXPECT_EQ(lc.seq, 7);
  EXPECT_EQ(lc.detect_time, SimTime::from_seconds(1.0));
  EXPECT_EQ(lc.first_request_time, SimTime::from_seconds(1.2));
  EXPECT_EQ(lc.recover_time, SimTime::from_seconds(1.8));
  EXPECT_EQ(lc.outcome, LossOutcome::kRecovered);
  EXPECT_FALSE(lc.expedited);
  EXPECT_EQ(lc.requests, 1);
  EXPECT_EQ(lc.suppressions, 1);
  EXPECT_EQ(lc.duplicates, 1);
  EXPECT_DOUBLE_EQ(lc.latency_seconds(), 0.8);
  EXPECT_EQ(tl.recovered, 1u);
  EXPECT_EQ(tl.duplicate_repairs, 1u);
}

TEST(Timeline, ExpeditedSuccessAndFallback) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.1, EventKind::kExpAttempt, 3, 0, 7, 5),
      ev(1.4, EventKind::kExpSuccess, 3, 0, 7, 5),
      ev(2.0, EventKind::kLossDetected, 4, 0, 9),
      ev(2.1, EventKind::kExpAttempt, 4, 0, 9, 5),
      ev(2.9, EventKind::kExpFallback, 4, 0, 9, 6),
  };
  const RecoveryTimeline tl = reconstruct_timeline(events);
  ASSERT_EQ(tl.lifecycles.size(), 2u);
  EXPECT_TRUE(tl.lifecycles[0].expedited);
  EXPECT_TRUE(tl.lifecycles[0].expedited_attempted);
  EXPECT_FALSE(tl.lifecycles[1].expedited);  // fell back to SRM recovery
  EXPECT_TRUE(tl.lifecycles[1].expedited_attempted);
  EXPECT_EQ(tl.expedited_successes, 1u);
  EXPECT_EQ(tl.recovered, 2u);
}

TEST(Timeline, CrashAbandonsOpenLossesAndCatchUpReopens) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.5, EventKind::kLossDetected, 4, 0, 7),
      // Node 3 crashes: only its open lifecycle is abandoned.
      ev(2.0, EventKind::kFaultApplied, 3, net::kInvalidNode, net::kNoSeq,
         net::kInvalidNode, kFaultCrash),
      // Post-recovery catch-up re-detects the same (node, source, seq).
      ev(5.0, EventKind::kLossDetected, 3, 0, 7),
      ev(5.5, EventKind::kRecovered, 3, 0, 7),
      ev(6.0, EventKind::kRecovered, 4, 0, 7),
  };
  const RecoveryTimeline tl = reconstruct_timeline(events);
  ASSERT_EQ(tl.lifecycles.size(), 3u);
  EXPECT_EQ(tl.lifecycles[0].outcome, LossOutcome::kAbandoned);
  EXPECT_EQ(tl.lifecycles[1].outcome, LossOutcome::kRecovered);
  EXPECT_EQ(tl.lifecycles[2].outcome, LossOutcome::kRecovered);
  EXPECT_EQ(tl.abandoned, 1u);
  EXPECT_EQ(tl.recovered, 2u);
  EXPECT_EQ(tl.unrecovered, 0u);
}

TEST(Timeline, SilentRepairsAndOpenLossesCounted) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kRepairBeforeDetection, 3, 0, 6),
      ev(2.0, EventKind::kLossDetected, 3, 0, 7),
  };
  const RecoveryTimeline tl = reconstruct_timeline(events);
  EXPECT_EQ(tl.silent_repairs, 1u);
  EXPECT_EQ(tl.losses, 1u);
  EXPECT_EQ(tl.unrecovered, 1u);
  EXPECT_EQ(tl.lifecycles[0].outcome, LossOutcome::kOpen);
}

// ------------------------------------------------ recorder / hook contract --

TEST(TraceRecorder, CountsAlwaysEventsOnlyWhenTracing) {
  TraceRecorder counting(ObsConfig{.trace = false, .metrics = true});
  counting.emit(SimTime::zero(), EventKind::kLossDetected, 1);
  counting.emit(SimTime::zero(), EventKind::kLossDetected, 2);
  EXPECT_EQ(counting.count(EventKind::kLossDetected), 2u);
  EXPECT_TRUE(counting.events().empty());

  TraceRecorder tracing(ObsConfig{.trace = true});
  tracing.emit(SimTime::zero(), EventKind::kRequestSent, 1, 0, 5, 2, 3);
  ASSERT_EQ(tracing.events().size(), 1u);
  EXPECT_EQ(tracing.events()[0].kind, EventKind::kRequestSent);
  EXPECT_EQ(tracing.events()[0].peer, 2);
  EXPECT_EQ(tracing.events()[0].detail, 3);
}

// ----------------------------------------------- experiment reconciliation --

harness::ExperimentResult run_observed(const trace::LossTrace& loss,
                                       const infer::LinkTraceRepresentation& links,
                                       Protocol protocol,
                                       fault::FaultPlan faults = {}) {
  harness::ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 11;
  cfg.observe.trace = true;
  cfg.observe.metrics = true;
  cfg.faults = std::move(faults);
  return harness::run_experiment(loss, links, cfg);
}

std::uint64_t expedited_recoveries(const harness::ExperimentResult& r) {
  std::uint64_t n = 0;
  for (const auto& m : r.members)
    for (const auto& rec : m.stats.recoveries)
      if (rec.recovered && rec.expedited) ++n;
  return n;
}

std::uint64_t abandoned_losses(const harness::ExperimentResult& r) {
  std::uint64_t n = 0;
  for (const auto& m : r.members) n += m.stats.losses_abandoned_at_crash;
  return n;
}

void expect_reconciles(const harness::ExperimentResult& r) {
  ASSERT_TRUE(r.events != nullptr);
  const RecoveryTimeline tl = reconstruct_timeline(*r.events);
  EXPECT_EQ(tl.losses, r.total_losses_detected());
  EXPECT_EQ(tl.recovered, r.total_recovered());
  EXPECT_EQ(tl.unrecovered, r.total_unrecovered());
  EXPECT_EQ(tl.abandoned, abandoned_losses(r));
  EXPECT_EQ(tl.expedited_successes, expedited_recoveries(r));
  EXPECT_EQ(tl.silent_repairs, r.total_silent_repairs());
}

/// Shared 4-receiver workload over tree 0(1(3 4) 2(5 6)).
struct SmallWorkload {
  SmallWorkload() {
    trace::TraceSpec spec;
    spec.name = "OBS4";
    spec.receivers = 4;
    spec.depth = 3;
    spec.period_ms = 40;
    spec.packets = 4000;
    spec.losses = 800;
    spec.seed = 77;
    gen = trace::generate_trace(spec);
    const auto est = infer::estimate_links_yajnik(*gen.loss);
    links = std::make_unique<infer::LinkTraceRepresentation>(*gen.loss,
                                                             est.loss_rate);
  }
  trace::GeneratedTrace gen;
  std::unique_ptr<infer::LinkTraceRepresentation> links;
};

const SmallWorkload& small_workload() {
  static SmallWorkload* w = new SmallWorkload();
  return *w;
}

TEST(Reconciliation, FourReceiverRunSrm) {
  const auto& w = small_workload();
  const auto r = run_observed(*w.gen.loss, *w.links, Protocol::kSrm);
  EXPECT_GT(r.total_losses_detected(), 0u);
  expect_reconciles(r);
  // Every lifecycle names a real receiver and a detect <= recover ordering.
  const RecoveryTimeline tl = reconstruct_timeline(*r.events);
  for (const LossLifecycle& lc : tl.lifecycles) {
    EXPECT_EQ(lc.source, w.gen.loss->tree().root());
    EXPECT_TRUE(w.gen.loss->tree().is_leaf(lc.node));
    if (lc.outcome == LossOutcome::kRecovered) {
      EXPECT_LE(lc.detect_time, lc.recover_time);
      EXPECT_GE(lc.latency_seconds(), 0.0);
    }
    // SRM never expedites.
    EXPECT_FALSE(lc.expedited_attempted);
  }
}

TEST(Reconciliation, FourReceiverRunCesrmHasExpeditedSuccesses) {
  const auto& w = small_workload();
  const auto r = run_observed(*w.gen.loss, *w.links, Protocol::kCesrm);
  expect_reconciles(r);
  const RecoveryTimeline tl = reconstruct_timeline(*r.events);
  EXPECT_GT(tl.expedited_successes, 0u);  // caching must pay off here
}

TEST(Reconciliation, Table1RunBothProtocols) {
  trace::TraceSpec spec = trace::table1_spec(3);
  spec.losses = spec.losses * 1500 / spec.packets;
  spec.packets = 1500;
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  const infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  for (const Protocol protocol :
       {Protocol::kSrm, Protocol::kCesrm, Protocol::kLms}) {
    const auto r = run_observed(*gen.loss, links, protocol);
    EXPECT_GT(r.total_losses_detected(), 0u) << protocol_name(protocol);
    expect_reconciles(r);
  }
}

TEST(Reconciliation, CrashRunAccountsAbandonedLosses) {
  const auto& w = small_workload();
  fault::FaultPlan plan;
  fault::CrashEvent crash;
  crash.receiver_rank = 0;
  crash.at = SimTime::seconds(30);
  crash.recover_at = SimTime::seconds(90);
  plan.crashes.push_back(crash);
  for (const Protocol protocol :
       {Protocol::kSrm, Protocol::kCesrm, Protocol::kLms}) {
    const auto r = run_observed(*w.gen.loss, *w.links, protocol, plan);
    expect_reconciles(r);
  }
}

// ------------------------------------------------------------ determinism --

TEST(Determinism, ArtifactsIdenticalAcrossWorkerCounts) {
  const auto& w = small_workload();
  const auto run_with_jobs = [&](unsigned jobs) {
    harness::RunnerOptions ropts;
    ropts.jobs = jobs;
    harness::ExperimentRunner runner(ropts);
    std::vector<harness::ExperimentJob> exp_jobs(2);
    for (std::size_t i = 0; i < 2; ++i) {
      exp_jobs[i].loss = w.gen.loss;
      exp_jobs[i].links = std::shared_ptr<const infer::LinkTraceRepresentation>(
          w.links.get(), [](auto*) {});
      exp_jobs[i].protocol = i == 0 ? Protocol::kSrm : Protocol::kCesrm;
      exp_jobs[i].config.seed = 5;
      exp_jobs[i].config.observe.trace = true;
      exp_jobs[i].config.observe.metrics = true;
    }
    return runner.run(std::move(exp_jobs));
  };
  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(8);

  // Merged metrics serialize byte-identically.
  std::ostringstream m1, m8;
  harness::merged_metrics(serial).to_json(m1);
  harness::merged_metrics(parallel).to_json(m8);
  EXPECT_EQ(m1.str(), m8.str());
  EXPECT_FALSE(m1.str().empty());

  // So do the exported traces.
  for (std::size_t i = 0; i < 2; ++i) {
    std::ostringstream t1, t8;
    write_events_jsonl(t1, *serial[i].result.events);
    write_events_jsonl(t8, *parallel[i].result.events);
    EXPECT_EQ(t1.str(), t8.str());
  }
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, MergeSemantics) {
  MetricsRegistry a;
  a.add("jobs", 1);
  a.gauge_max("high_water", 10.0);
  a.histogram("lat", 0.0, 1.0, 4).add(0.1);
  MetricsRegistry b;
  b.add("jobs", 2);
  b.gauge_max("high_water", 7.0);
  b.histogram("lat", 0.0, 1.0, 4).add(0.9);
  b.add("only_b", 5);

  MetricsSnapshot merged = a.take();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("jobs"), 3u);
  EXPECT_EQ(merged.counters.at("only_b"), 5u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("high_water"), 10.0);
  EXPECT_EQ(merged.histograms.at("lat").total(), 2u);
}

TEST(Metrics, HistogramGridMismatchIsFatal) {
  MetricsSnapshot a, b;
  a.histograms.emplace("h", util::Histogram(0.0, 1.0, 4));
  b.histograms.emplace("h", util::Histogram(0.0, 2.0, 4));
  EXPECT_THROW(a.merge(b), util::CheckError);
}

TEST(Metrics, ExperimentMetricsMatchAggregates) {
  const auto& w = small_workload();
  const auto r = run_observed(*w.gen.loss, *w.links, Protocol::kCesrm);
  EXPECT_EQ(r.metrics.counters.at("protocol.losses_detected"),
            r.total_losses_detected());
  EXPECT_EQ(r.metrics.counters.at("protocol.recovered"), r.total_recovered());
  EXPECT_EQ(r.metrics.counters.at("events.loss_detected"),
            r.total_losses_detected());
  EXPECT_EQ(r.metrics.counters.at("sim.events_executed"), r.events_executed);
  EXPECT_GT(r.metrics.gauges.at("sim.queue_high_water"), 0.0);
  EXPECT_EQ(r.metrics.histograms.at("recovery.latency_norm").total(),
            r.total_recovered());
}

// -------------------------------------------------------------- exporters --

TEST(Export, JsonlOneObjectPerEvent) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.5, EventKind::kRecovered, 3, 0, 7),
  };
  std::ostringstream os;
  write_events_jsonl(os, events);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("\"kind\":\"loss_detected\""), std::string::npos);
  EXPECT_NE(out.find("\"ts_us\":1000000"), std::string::npos);
}

TEST(Export, ChromeTraceStructure) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.2, EventKind::kRequestSent, 3, 0, 7),
      ev(1.8, EventKind::kRecovered, 3, 0, 7),
  };
  const std::vector<ChromeTraceJob> jobs = {{"t1/srm", events}};
  std::ostringstream os;
  write_chrome_trace(os, jobs);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // process_name
  EXPECT_NE(out.find("\"t1/srm\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // recovery span
  EXPECT_NE(out.find("\"dur\":"), std::string::npos);
}

// ---------------------------------------------- util satellites (json/stats) --

TEST(JsonHelpers, EscapeAndDouble) {
  std::ostringstream os;
  util::json_escape(os, "a\"b\\c\nd\te\x01"
                        "f");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  std::ostringstream dn;
  util::json_double(dn, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(dn.str(), "null");
  std::ostringstream dv;
  util::json_double(dv, 0.5);
  EXPECT_EQ(dv.str(), "0.5");
}

TEST(Stats, HistogramUnderOverflowTallied) {
  util::Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps into bucket 0, tallied as underflow
  h.add(5.0);
  h.add(12.0);   // clamps into the last bucket, tallied as overflow
  h.add(10.0);   // hi is exclusive: also overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);                    // clamped low value kept
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 2u); // clamped high values kept
  const std::string json = h.to_json();
  EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\":2"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[1,0,1,0,2]"), std::string::npos);
}

// -------------------------------------------------- causal phases (unit) ---

TEST(Causal, ReactivePhasesAttributedExactly) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.2, EventKind::kRequestSent, 3, 0, 7),
      ev(1.3, EventKind::kRepairScheduled, 5, 0, 7, 3),
      ev(1.5, EventKind::kRepairSent, 5, 0, 7, 3),
      ev(1.8, EventKind::kRecovered, 3, 0, 7, 5),
  };
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.chains.size(), 1u);
  const CausalChain& c = report.chains[0];
  EXPECT_EQ(c.replier, 5);
  EXPECT_EQ(c.cache, CacheConsult::kNone);
  EXPECT_EQ(c.group_requests, 1);
  EXPECT_EQ(c.group_replies, 1);
  EXPECT_EQ(c.latency_ns, ns(1.8) - ns(1.0));
  EXPECT_EQ(phase(c, Phase::kBackoff), ns(1.2) - ns(1.0));
  EXPECT_EQ(phase(c, Phase::kRequestWait), ns(1.3) - ns(1.2));
  EXPECT_EQ(phase(c, Phase::kReplyWait), ns(1.5) - ns(1.3));
  EXPECT_EQ(phase(c, Phase::kRepairTransit), ns(1.8) - ns(1.5));
  EXPECT_EQ(phase(c, Phase::kReorderWait), 0);
  EXPECT_EQ(phase(c, Phase::kExpTransit), 0);
  EXPECT_EQ(phase_sum(c), c.latency_ns);
}

TEST(Causal, ExpeditedPhasesAndCacheHitAttributed) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.0, EventKind::kCacheHit, 3, 0, 7, 5, 1),
      ev(1.1, EventKind::kExpAttempt, 3, 0, 7, 5),
      ev(1.25, EventKind::kRepairSent, 5, 0, 7, 3, /*detail=expedited*/ 1),
      ev(1.4, EventKind::kExpSuccess, 3, 0, 7, 5),
  };
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.chains.size(), 1u);
  const CausalChain& c = report.chains[0];
  EXPECT_TRUE(c.lifecycle.expedited);
  EXPECT_EQ(c.replier, 5);
  EXPECT_EQ(c.cache, CacheConsult::kHit);
  EXPECT_EQ(phase(c, Phase::kReorderWait), ns(1.1) - ns(1.0));
  EXPECT_EQ(phase(c, Phase::kExpTransit), ns(1.25) - ns(1.1));
  EXPECT_EQ(phase(c, Phase::kRepairTransit), ns(1.4) - ns(1.25));
  EXPECT_EQ(phase(c, Phase::kBackoff), 0);
  EXPECT_EQ(phase_sum(c), c.latency_ns);
}

TEST(Causal, SuppressedMemberCollapsesBackoffToZero) {
  // Node 3 never sends its own request (node 4's requests suppress it);
  // the backoff boundary inherits detect and the wait lands downstream.
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.1, EventKind::kRequestSent, 4, 0, 7),
      ev(1.3, EventKind::kRepairScheduled, 5, 0, 7, 4),
      ev(1.5, EventKind::kRepairSent, 5, 0, 7, 4),
      ev(1.8, EventKind::kRecovered, 3, 0, 7, 5),
  };
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.chains.size(), 1u);
  const CausalChain& c = report.chains[0];
  EXPECT_EQ(c.lifecycle.requests, 0);
  EXPECT_EQ(phase(c, Phase::kBackoff), 0);
  EXPECT_EQ(phase(c, Phase::kRequestWait), ns(1.3) - ns(1.0));
  EXPECT_EQ(phase(c, Phase::kReplyWait), ns(1.5) - ns(1.3));
  EXPECT_EQ(phase(c, Phase::kRepairTransit), ns(1.8) - ns(1.5));
  EXPECT_EQ(phase_sum(c), c.latency_ns);
}

TEST(Causal, MissingWitnessesLandEverythingInRepairTransit) {
  // No replier events at all (overheard repair, unknown sender): every
  // boundary inherits and the whole latency is repair transit — but the
  // sum contract still holds exactly.
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.8, EventKind::kRecovered, 3, 0, 7),
  };
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.chains.size(), 1u);
  const CausalChain& c = report.chains[0];
  EXPECT_EQ(c.replier, net::kInvalidNode);
  EXPECT_EQ(phase(c, Phase::kRepairTransit), c.latency_ns);
  EXPECT_EQ(phase_sum(c), c.latency_ns);
}

// ---------------------------------------------------- anomaly detectors ---

TEST(Anomaly, RequestImplosionFlaggedOncePerGroup) {
  std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.0, EventKind::kLossDetected, 4, 0, 7),
  };
  for (int i = 0; i < 8; ++i)
    events.push_back(ev(1.1 + 0.01 * i, EventKind::kRequestSent,
                        i % 2 ? 3 : 4, 0, 7));
  events.push_back(ev(1.8, EventKind::kRecovered, 3, 0, 7, 5));
  events.push_back(ev(1.8, EventKind::kRecovered, 4, 0, 7, 5));
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.chains.size(), 2u);
  EXPECT_EQ(report.chains[0].group_requests, 8);
  ASSERT_EQ(report.anomalies.size(), 1u);  // one flag for the whole group
  EXPECT_EQ(report.anomalies[0].kind, AnomalyKind::kRequestImplosion);
  EXPECT_EQ(report.anomalies[0].source, 0);
  EXPECT_EQ(report.anomalies[0].seq, 7);
  EXPECT_DOUBLE_EQ(report.anomalies[0].value, 8.0);
}

TEST(Anomaly, ReplyImplosionFlagged) {
  std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
  };
  for (int i = 0; i < 4; ++i)
    events.push_back(ev(1.2 + 0.01 * i, EventKind::kRepairSent, 5 + i, 0, 7, 3));
  events.push_back(ev(1.8, EventKind::kRecovered, 3, 0, 7, 5));
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].kind, AnomalyKind::kReplyImplosion);
  EXPECT_DOUBLE_EQ(report.anomalies[0].value, 4.0);
  EXPECT_DOUBLE_EQ(report.anomalies[0].threshold, 4.0);
}

TEST(Anomaly, ZombieOnlyAtLiveMembers) {
  const std::vector<TraceEvent> events = {
      // Node 3's loss dies with the member: abandoned, not a zombie.
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(2.0, EventKind::kFaultApplied, 3, net::kInvalidNode, net::kNoSeq,
         net::kInvalidNode, kFaultCrash),
      // Node 4 is alive and its loss is still open at stream end: zombie.
      ev(3.0, EventKind::kLossDetected, 4, 0, 9),
      ev(10.0, EventKind::kSessionSent, 0),
  };
  const CausalReport report = analyze_causal(events);
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].kind, AnomalyKind::kZombieRecovery);
  EXPECT_EQ(report.anomalies[0].node, 4);
  EXPECT_EQ(report.anomalies[0].seq, 9);
  EXPECT_DOUBLE_EQ(report.anomalies[0].value,
                   static_cast<double>(ns(10.0) - ns(3.0)));
}

TEST(Anomaly, CacheInversionFlagsSlowCacheHit) {
  const std::vector<TraceEvent> events = {
      // Reactive baseline: 100 ms.
      ev(1.0, EventKind::kLossDetected, 3, 0, 1),
      ev(1.1, EventKind::kRecovered, 3, 0, 1, 5),
      // Cache-hit expedited recovery at 500 ms > 1.5 x the 100 ms median.
      ev(2.0, EventKind::kLossDetected, 3, 0, 2),
      ev(2.0, EventKind::kCacheHit, 3, 0, 2, 5, 1),
      ev(2.05, EventKind::kExpAttempt, 3, 0, 2, 5),
      ev(2.5, EventKind::kExpSuccess, 3, 0, 2, 5),
  };
  const CausalReport report = analyze_causal(events);
  EXPECT_EQ(report.median_reactive_latency_ns, ns(0.1));
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].kind, AnomalyKind::kCacheInversion);
  EXPECT_EQ(report.anomalies[0].seq, 2);
  EXPECT_DOUBLE_EQ(report.anomalies[0].value,
                   static_cast<double>(ns(2.5) - ns(2.0)));
}

TEST(Anomaly, TailOutlierAgainstRunMedian) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 5; ++i) {  // five 100 ms recoveries set the median
    events.push_back(ev(1.0 + i, EventKind::kLossDetected, 3, 0, i));
    events.push_back(ev(1.1 + i, EventKind::kRecovered, 3, 0, i, 5));
  }
  events.push_back(ev(10.0, EventKind::kLossDetected, 3, 0, 99));
  events.push_back(ev(10.9, EventKind::kRecovered, 3, 0, 99, 5));  // 900 ms
  const CausalReport report = analyze_causal(events);
  EXPECT_EQ(report.median_latency_ns, ns(0.1));
  ASSERT_EQ(report.anomalies.size(), 1u);
  EXPECT_EQ(report.anomalies[0].kind, AnomalyKind::kTailOutlier);
  EXPECT_EQ(report.anomalies[0].seq, 99);
}

// ------------------------------------- phase-sum reconciliation (runs) ---

void expect_phase_sums_exact(const harness::ExperimentResult& r) {
  ASSERT_TRUE(r.events != nullptr);
  const CausalReport report = analyze_causal(*r.events);
  EXPECT_EQ(report.chains.size(), report.timeline.recovered);
  for (const CausalChain& c : report.chains) {
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      ASSERT_GE(c.phase_ns[p], 0)
          << phase_name(static_cast<Phase>(p)) << " negative for loss "
          << c.lifecycle.source << ":" << c.lifecycle.seq << " at node "
          << c.lifecycle.node;
    ASSERT_EQ(phase_sum(c), c.latency_ns)
        << "phase sum != latency for loss " << c.lifecycle.source << ":"
        << c.lifecycle.seq << " at node " << c.lifecycle.node;
  }
}

TEST(Causal, PhaseSumsExactOnFaultedTable1Run) {
  trace::TraceSpec spec = trace::table1_spec(3);
  spec.losses = spec.losses * 1500 / spec.packets;
  spec.packets = 1500;
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  const infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  fault::FaultPlan plan;
  fault::CrashEvent crash;
  crash.receiver_rank = 0;
  crash.at = SimTime::seconds(30);
  crash.recover_at = SimTime::seconds(90);
  plan.crashes.push_back(crash);
  for (const Protocol protocol :
       {Protocol::kSrm, Protocol::kCesrm, Protocol::kLms}) {
    const auto r = run_observed(*gen.loss, links, protocol, plan);
    EXPECT_GT(r.total_recovered(), 0u) << protocol_name(protocol);
    expect_phase_sums_exact(r);
  }
}

TEST(Causal, PhaseSumsExactOnSmallWorkload) {
  const auto& w = small_workload();
  for (const Protocol protocol :
       {Protocol::kSrm, Protocol::kCesrm, Protocol::kLms}) {
    const auto r = run_observed(*w.gen.loss, *w.links, protocol);
    expect_phase_sums_exact(r);
  }
}

TEST(Causal, ReportJsonStructure) {
  const std::vector<TraceEvent> events = {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.2, EventKind::kRequestSent, 3, 0, 7),
      ev(1.8, EventKind::kRecovered, 3, 0, 7, 5),
  };
  std::ostringstream os;
  write_causal_report_json(os, analyze_causal(events));
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"schema\":\"cesrm.causal.v1\",", 0), 0u);
  EXPECT_NE(out.find("\"chains\":["), std::string::npos);
  EXPECT_NE(out.find("\"anomalies\":["), std::string::npos);
  EXPECT_NE(out.find("\"phases\":{"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

// ------------------------------------------------------ streaming sketch ---

TEST(Sketch, LogHistogramExactBelowSubBucketRange) {
  LogHistogram h;
  for (std::int64_t v = 0; v < LogHistogram::kSub; ++v) h.add(v);
  EXPECT_EQ(h.total(), static_cast<std::uint64_t>(LogHistogram::kSub));
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), LogHistogram::kSub - 1);
  // Unit buckets below kSub: quantiles are exact rank values.
  EXPECT_EQ(h.quantile(0.5), 15);
  EXPECT_EQ(h.quantile(1.0), LogHistogram::kSub - 1);
  EXPECT_EQ(h.bucket_width(7), 1);
  EXPECT_EQ(h.bucket_lower(7), 7);
}

TEST(Sketch, LogHistogramQuantileWithinOneBucketWidth) {
  LogHistogram h;
  std::vector<std::int64_t> exact;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // deterministic LCG walk
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::int64_t v = static_cast<std::int64_t>(x % 5'000'000'000ull);
    h.add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // Mirror the histogram's rank convention to find the exact value.
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(exact.size()) + 0.5);
    if (target < 1) target = 1;
    if (target > exact.size()) target = exact.size();
    const std::int64_t truth = exact[target - 1];
    const std::int64_t approx = h.quantile(q);
    EXPECT_EQ(approx, h.bucket_lower(truth)) << "q=" << q;
    EXPECT_LE(approx, truth) << "q=" << q;
    EXPECT_LT(truth - approx, h.bucket_width(truth)) << "q=" << q;
  }
}

TEST(Sketch, LogHistogramMergeEqualsSingle) {
  LogHistogram all, lo, hi;
  for (std::int64_t v = 1; v <= 4000; ++v) {
    (v % 2 ? lo : hi).add(v * 12345);
    all.add(v * 12345);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.total(), all.total());
  EXPECT_EQ(lo.min(), all.min());
  EXPECT_EQ(lo.max(), all.max());
  std::ostringstream a, b;
  lo.to_json(a);
  all.to_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Sketch, TopKExactUnderCapacity) {
  TopK t(4);
  t.offer(1, 3);
  t.offer(2, 5);
  t.offer(3, 1);
  const auto ranked = t.ranked();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].key, 2);
  EXPECT_EQ(ranked[0].count, 5u);
  EXPECT_EQ(ranked[1].key, 1);
  EXPECT_EQ(ranked[2].key, 3);
  for (const auto& e : ranked) EXPECT_EQ(e.error, 0u);
}

TEST(Sketch, TopKEvictionInheritsCountAsError) {
  TopK t(2);
  t.offer(10, 5);
  t.offer(20, 3);
  t.offer(30);  // evicts key 20 (min count 3), inherits its count
  const auto ranked = t.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].key, 10);
  EXPECT_EQ(ranked[0].count, 5u);
  EXPECT_EQ(ranked[1].key, 30);
  EXPECT_EQ(ranked[1].count, 4u);
  EXPECT_EQ(ranked[1].error, 3u);
}

TEST(Sketch, TopKTieEvictsLargestKey) {
  TopK t(2);
  t.offer(10, 2);
  t.offer(20, 2);
  t.offer(5);  // tie on count 2: key 20 (largest) loses
  const auto ranked = t.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].key, 5);  // 2 inherited + 1
  EXPECT_EQ(ranked[0].count, 3u);
  EXPECT_EQ(ranked[1].key, 10);
}

TEST(Sketch, TopKMergeMatchesSequentialOffers) {
  TopK merged(3), sequential(3);
  TopK other(3);
  sequential.offer(1, 4);
  merged.offer(1, 4);
  other.offer(2, 2);
  other.offer(7, 9);
  merged.merge(other);
  // merge offers other's entries in ascending key order.
  sequential.offer(2, 2);
  sequential.offer(7, 9);
  std::ostringstream a, b;
  merged.to_json(a);
  sequential.to_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Sketch, StreamingSketchFoldsClosingAux) {
  StreamingSketch s;
  s.fold(ev(1.0, EventKind::kRecovered, 3, 0, 1, 5, 0, 100));
  s.fold(ev(1.1, EventKind::kExpSuccess, 3, 0, 2, 5, 0, 50));
  s.fold(ev(1.2, EventKind::kExpFallback, 3, 0, 3, 5, 0, 200));
  s.fold(ev(1.3, EventKind::kRepairSent, 5, 0, 4, 3, 0, 10));
  s.fold(ev(1.4, EventKind::kPacketDropped, 7, 0, 5, 1));
  s.fold(ev(1.5, EventKind::kPacketDropped, 7, 0, 6, 1));
  s.fold(ev(1.6, EventKind::kLossDetected, 2, 0, 6));
  EXPECT_EQ(s.events_folded, 7u);
  EXPECT_EQ(s.recovery_latency_ns.total(), 3u);
  EXPECT_EQ(s.recovery_latency_ns.min(), 50);
  EXPECT_EQ(s.recovery_latency_ns.max(), 200);
  EXPECT_EQ(s.expedited_latency_ns.total(), 1u);
  EXPECT_EQ(s.reply_wait_ns.total(), 1u);
  const auto drops = s.drop_links.ranked();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].key, 7);
  EXPECT_EQ(drops[0].count, 2u);
  EXPECT_EQ(s.loss_nodes.ranked()[0].key, 2);
}

TEST(Sketch, PeakMemoryIndependentOfEventCount) {
  const auto peak_for = [](int folds) {
    sketch_reset_peak();
    const std::uint64_t before = sketch_live_bytes();
    StreamingSketch s;
    for (int i = 0; i < folds; ++i)
      s.fold(ev(1.0 + i * 1e-6, EventKind::kRecovered, i % 37, 0, i,
                net::kInvalidNode, 0, (i * 7919) % 1'000'000'000));
    EXPECT_EQ(s.recovery_latency_ns.total(), static_cast<std::uint64_t>(folds));
    return sketch_peak_bytes() - before;
  };
  const std::uint64_t small = peak_for(100);
  const std::uint64_t large = peak_for(200'000);
  EXPECT_EQ(small, large);  // O(buckets), not O(events)
  EXPECT_LT(large, 64u * 1024u);  // 3 histograms + 2 top-k ≈ 47 KiB
}

TEST(Sketch, StreamedRunMatchesExactTimeline) {
  const auto& w = small_workload();
  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kCesrm;
  cfg.seed = 11;
  cfg.observe.trace = true;
  cfg.observe.stream = true;
  const auto r = harness::run_experiment(*w.gen.loss, *w.links, cfg);
  ASSERT_TRUE(r.events != nullptr);
  ASSERT_TRUE(r.sketch != nullptr);
  const RecoveryTimeline tl = reconstruct_timeline(*r.events);
  const LogHistogram& sk = r.sketch->recovery_latency_ns;
  EXPECT_EQ(sk.total(), tl.recovered);
  EXPECT_EQ(r.sketch->expedited_latency_ns.total(), tl.expedited_successes);
  EXPECT_EQ(r.sketch->events_folded, r.events->size());

  std::vector<std::int64_t> exact;
  for (const LossLifecycle& lc : tl.lifecycles)
    if (lc.outcome == LossOutcome::kRecovered)
      exact.push_back((lc.recover_time - lc.detect_time).ns());
  std::sort(exact.begin(), exact.end());
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(sk.min(), exact.front());
  EXPECT_EQ(sk.max(), exact.back());
  for (const double q : {0.5, 0.9, 0.99}) {
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(exact.size()) + 0.5);
    if (target < 1) target = 1;
    if (target > exact.size()) target = exact.size();
    const std::int64_t truth = exact[target - 1];
    EXPECT_EQ(sk.quantile(q), sk.bucket_lower(truth)) << "q=" << q;
    EXPECT_LT(truth - sk.quantile(q), sk.bucket_width(truth)) << "q=" << q;
  }
}

// ------------------------------------------------------------ JSONL reader ---

TEST(Jsonl, RoundTripPreservesEveryField) {
  const std::vector<TraceEvent> events = {
      ev(0.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.25, EventKind::kRepairSent, 5, 0, 7, 3, 1, 12345),
      ev(123.456789, EventKind::kRecovered, 3, 0, 7, 5, 0, 987654321),
      ev(9999.0, EventKind::kFaultApplied, 4, net::kInvalidNode, net::kNoSeq,
         net::kInvalidNode, kFaultCrash),
  };
  std::stringstream ss;
  write_events_jsonl(ss, events);
  const JsonlReadResult r = read_events_jsonl(ss);
  ASSERT_TRUE(r.ok) << "line " << r.error_line << ": " << r.error;
  ASSERT_EQ(r.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(r.events[i].at, events[i].at);
    EXPECT_EQ(r.events[i].kind, events[i].kind);
    EXPECT_EQ(r.events[i].node, events[i].node);
    EXPECT_EQ(r.events[i].source, events[i].source);
    EXPECT_EQ(r.events[i].seq, events[i].seq);
    EXPECT_EQ(r.events[i].peer, events[i].peer);
    EXPECT_EQ(r.events[i].detail, events[i].detail);
    EXPECT_EQ(r.events[i].aux, events[i].aux);
  }
}

TEST(Jsonl, MalformedLineReportedWithLineNumber) {
  std::stringstream ss;
  ss << "{\"ts_us\":1000,\"kind\":\"loss_detected\",\"node\":3}\n"
     << "this is not json\n";
  const JsonlReadResult r = read_events_jsonl(ss);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_line, 2u);
  EXPECT_TRUE(r.events.empty());
  EXPECT_FALSE(r.error.empty());
}

TEST(Jsonl, UnknownKindRejected) {
  std::stringstream ss;
  ss << "{\"ts_us\":1000,\"kind\":\"totally_bogus\",\"node\":3}\n";
  const JsonlReadResult r = read_events_jsonl(ss);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_line, 1u);
}

TEST(Jsonl, EventKindNamesRoundTrip) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const EventKind kind = static_cast<EventKind>(k);
    EventKind parsed = EventKind::kCount;
    ASSERT_TRUE(parse_event_kind(event_kind_name(kind), parsed))
        << event_kind_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed = EventKind::kCount;
  EXPECT_FALSE(parse_event_kind("no_such_kind", parsed));
}

// ---------------------------------------------------------- golden corpus ---

/// A fixed synthetic stream exercising every exporter feature: reactive and
/// expedited recoveries, cache traffic (the occupancy counter track), a
/// crash/recover pair (the outstanding counter reset), drops, duplicates,
/// and an open loss. Golden serializations live in tests/corpus/obs.
std::vector<TraceEvent> corpus_events() {
  return {
      ev(1.0, EventKind::kLossDetected, 3, 0, 7),
      ev(1.0, EventKind::kCacheMiss, 3, 0, 7),
      ev(1.0, EventKind::kRequestScheduled, 3, 0, 7, net::kInvalidNode, 0),
      ev(1.2, EventKind::kRequestSent, 3, 0, 7, net::kInvalidNode, 0),
      ev(1.3, EventKind::kRepairScheduled, 5, 0, 7, 3),
      ev(1.5, EventKind::kRepairSent, 5, 0, 7, 3, 0, 200000000),
      ev(1.5, EventKind::kCacheStored, 4, 0, 7, 5, 1),
      ev(1.8, EventKind::kRecovered, 3, 0, 7, 5, 0, 800000000),
      ev(1.9, EventKind::kDuplicateRepair, 3, 0, 7, 6),
      ev(2.0, EventKind::kLossDetected, 4, 0, 9),
      ev(2.0, EventKind::kCacheHit, 4, 0, 9, 5, 1),
      ev(2.05, EventKind::kExpAttempt, 4, 0, 9, 5),
      ev(2.25, EventKind::kRepairSent, 5, 0, 9, 4, 1, 0),
      ev(2.4, EventKind::kExpSuccess, 4, 0, 9, 5, 0, 400000000),
      ev(3.0, EventKind::kPacketDropped, 6, 0, 11, 2, 0),
      ev(3.5, EventKind::kFaultApplied, 6, net::kInvalidNode, net::kNoSeq,
         net::kInvalidNode, kFaultCrash),
      ev(4.0, EventKind::kFaultApplied, 6, net::kInvalidNode, net::kNoSeq,
         net::kInvalidNode, kFaultRecover),
      ev(4.5, EventKind::kSessionSent, 0),
      ev(5.0, EventKind::kLossDetected, 6, 0, 12),
  };
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObsCorpus, GoldenArtifactsAreByteStable) {
  const std::vector<TraceEvent> events = corpus_events();
  std::ostringstream jsonl, chrome, causal;
  write_events_jsonl(jsonl, events);
  const std::vector<ChromeTraceJob> jobs = {{"corpus/run", events}};
  write_chrome_trace(chrome, jobs);
  write_causal_report_json(causal, analyze_causal(events));

  const std::filesystem::path dir = CESRM_CORPUS_DIR;
  const struct {
    const char* name;
    const std::string& body;
  } artifacts[] = {
      {"mixed-recovery.jsonl", jsonl.str()},
      {"mixed-recovery.chrome.json", chrome.str()},
      {"mixed-recovery.causal.json", causal.str()},
  };
  if (std::getenv("CESRM_OBS_CORPUS_WRITE") != nullptr) {
    std::filesystem::create_directories(dir);
    for (const auto& a : artifacts) {
      std::ofstream out(dir / a.name, std::ios::binary);
      out << a.body;
    }
  }
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << dir << " missing — run with CESRM_OBS_CORPUS_WRITE=1 to generate";
  for (const auto& a : artifacts) {
    SCOPED_TRACE(a.name);
    EXPECT_EQ(read_file(dir / a.name), a.body);
  }
  // The golden stream round-trips through the JSONL reader too.
  std::istringstream back(jsonl.str());
  const JsonlReadResult r = read_events_jsonl(back);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.events.size(), events.size());
}

}  // namespace
}  // namespace cesrm::obs
