// Tests for the experiment harness and the figure/table report layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "harness/reports.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "obs/export.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"

namespace cesrm::harness {
namespace {

/// Shared small workload: generated once per process, reused by the tests
/// (generation + inference dominate runtime otherwise).
struct Workload {
  Workload() {
    trace::TraceSpec spec;
    spec.name = "HARNESS";
    spec.receivers = 7;
    spec.depth = 4;
    spec.period_ms = 40;
    spec.packets = 8000;
    spec.losses = 2800;  // 5% per-receiver average
    spec.seed = 404;
    gen = trace::generate_trace(spec);
    const auto est = infer::estimate_links_yajnik(*gen.loss);
    links = std::make_unique<infer::LinkTraceRepresentation>(*gen.loss,
                                                             est.loss_rate);
    ExperimentConfig cfg;
    cfg.seed = 5;
    cfg.protocol = Protocol::kSrm;
    srm = run_experiment(*gen.loss, *links, cfg);
    cfg.protocol = Protocol::kCesrm;
    cesrm = run_experiment(*gen.loss, *links, cfg);
  }
  trace::GeneratedTrace gen;
  std::unique_ptr<infer::LinkTraceRepresentation> links;
  ExperimentResult srm;
  ExperimentResult cesrm;
};

const Workload& workload() {
  static Workload* w = new Workload();
  return *w;
}

// ----------------------------------------------------------- experiment ----

TEST(Experiment, MembersOrderedSourceFirst) {
  const auto& w = workload();
  ASSERT_EQ(w.srm.members.size(), 8u);  // source + 7 receivers
  EXPECT_TRUE(w.srm.members[0].is_source);
  EXPECT_EQ(w.srm.members[0].node, w.gen.loss->tree().root());
  for (std::size_t i = 1; i < w.srm.members.size(); ++i) {
    EXPECT_FALSE(w.srm.members[i].is_source);
    EXPECT_GT(w.srm.members[i].rtt_to_source, 0.0);
  }
  EXPECT_EQ(w.srm.receivers().size(), 7u);
}

TEST(Experiment, EveryInjectedLossIsAccountedFor) {
  // A trace loss is either detected (and enters the recovery machinery) or
  // repaired by a retransmission before the loser noticed the gap — the
  // latter happens when another member's recovery (especially a CESRM
  // expedited one) outruns gap detection.
  const auto& w = workload();
  for (const auto* proto : {&w.srm, &w.cesrm}) {
    EXPECT_EQ(proto->total_losses_detected() + proto->total_silent_repairs(),
              w.gen.loss->total_losses())
        << protocol_name(proto->protocol);
  }
}

TEST(Experiment, AllLossesRecoveredUnderLosslessRecovery) {
  const auto& w = workload();
  EXPECT_EQ(w.srm.total_unrecovered(), 0u);
  EXPECT_EQ(w.cesrm.total_unrecovered(), 0u);
  EXPECT_EQ(w.srm.total_recovered() + w.srm.total_silent_repairs(),
            w.gen.loss->total_losses());
  EXPECT_EQ(w.cesrm.total_recovered() + w.cesrm.total_silent_repairs(),
            w.gen.loss->total_losses());
}

TEST(Experiment, PerReceiverRecoveryCountsMatchTrace) {
  const auto& w = workload();
  for (const auto* proto : {&w.srm, &w.cesrm}) {
    for (const auto& m : proto->members) {
      if (m.is_source) continue;
      EXPECT_EQ(m.stats.losses_detected + m.stats.repairs_before_detection,
                w.gen.loss->receiver_losses(
                    w.gen.loss->receiver_index(m.node)))
          << "node " << m.node;
    }
  }
}

TEST(Experiment, SrmSendsNoExpeditedTraffic) {
  const auto& w = workload();
  EXPECT_EQ(w.srm.total_exp_requests_sent(), 0u);
  EXPECT_EQ(w.srm.total_exp_replies_sent(), 0u);
  EXPECT_EQ(w.srm.crossings.total_of(net::PacketType::kExpRequest), 0u);
  EXPECT_EQ(w.srm.crossings.total_of(net::PacketType::kExpReply), 0u);
}

TEST(Experiment, CesrmUsesExpeditedRecoveryHeavily) {
  const auto& w = workload();
  EXPECT_GT(w.cesrm.total_exp_requests_sent(), 0u);
  EXPECT_GT(w.cesrm.total_exp_replies_sent(), 0u);
  // Success rate (paper: > 70% on every trace).
  const double success =
      static_cast<double>(w.cesrm.total_exp_replies_sent()) /
      static_cast<double>(w.cesrm.total_exp_requests_sent());
  EXPECT_GT(success, 0.6);
}

TEST(Experiment, CesrmImprovesRecoveryLatency) {
  const auto& w = workload();
  const double srm_latency = w.srm.mean_normalized_recovery_time();
  const double cesrm_latency = w.cesrm.mean_normalized_recovery_time();
  EXPECT_GT(srm_latency, 0.0);
  // The headline result: CESRM reduces the average recovery time (by
  // roughly 50% in the paper; accept any clear improvement here).
  EXPECT_LT(cesrm_latency, 0.8 * srm_latency);
}

TEST(Experiment, DataCrossingsReflectInjectedDrops) {
  const auto& w = workload();
  // Data packets cross at most every link once per packet; drops reduce
  // the total. Both protocol runs inject identical data losses.
  EXPECT_EQ(w.srm.crossings.multicast_of(net::PacketType::kData),
            w.cesrm.crossings.multicast_of(net::PacketType::kData));
  const std::uint64_t links_count = w.gen.loss->tree().link_count();
  EXPECT_LE(w.srm.crossings.multicast_of(net::PacketType::kData),
            static_cast<std::uint64_t>(w.gen.loss->packet_count()) *
                links_count);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto& w = workload();
  ExperimentConfig cfg;
  cfg.seed = 5;
  cfg.protocol = Protocol::kCesrm;
  const auto again = run_experiment(*w.gen.loss, *w.links, cfg);
  EXPECT_EQ(again.total_requests_sent(), w.cesrm.total_requests_sent());
  EXPECT_EQ(again.total_replies_sent(), w.cesrm.total_replies_sent());
  EXPECT_EQ(again.total_exp_requests_sent(),
            w.cesrm.total_exp_requests_sent());
  EXPECT_EQ(again.events_executed, w.cesrm.events_executed);
  EXPECT_DOUBLE_EQ(again.mean_normalized_recovery_time(),
                   w.cesrm.mean_normalized_recovery_time());
}

TEST(Experiment, MaxPacketsCapsTheRun) {
  const auto& w = workload();
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSrm;
  cfg.max_packets = 500;
  const auto result = run_experiment(*w.gen.loss, *w.links, cfg);
  EXPECT_EQ(result.packets_sent, 500);
  EXPECT_LT(result.total_losses_detected(), w.gen.loss->total_losses());
}

TEST(Experiment, LossyRecoveryStillRecoversEverything) {
  // §4.3's robustness remark: with recovery packets also dropped, both
  // protocols keep recovering (latencies grow slightly).
  trace::TraceSpec spec;
  spec.name = "LOSSY";
  spec.receivers = 5;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 4000;
  spec.losses = 1200;
  spec.seed = 61;
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kCesrm;
  cfg.lossy_recovery = true;
  cfg.drain = sim::SimTime::seconds(60);
  const auto result = run_experiment(*gen.loss, links, cfg);
  EXPECT_EQ(result.total_unrecovered(), 0u);
  EXPECT_GT(result.crossings
                .dropped[static_cast<std::size_t>(net::PacketType::kReply)] +
                result.crossings.dropped[static_cast<std::size_t>(
                    net::PacketType::kRequest)],
            0u);
}

// ---------------------------------------------------------- golden runs ----

/// Deep fingerprint of everything an experiment exports. Two runs with
/// equal fingerprints are indistinguishable to every report, bench
/// artifact, and figure in the repo.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << "exec=" << r.events_executed << " end=" << r.sim_end.ns()
     << " sent=" << r.packets_sent << "\n";
  for (const auto& m : r.members) {
    os << "m " << m.node << (m.is_source ? " src" : "")
       << (m.failed ? " failed" : "") << " rtt=" << m.rtt_to_source << " "
       << m.stats.data_sent << " " << m.stats.session_sent << " "
       << m.stats.requests_sent << " " << m.stats.replies_sent << " "
       << m.stats.exp_requests_sent << " " << m.stats.exp_replies_sent << " "
       << m.stats.exp_requests_cancelled << " "
       << m.stats.duplicate_replies_received << " "
       << m.stats.requests_received << " " << m.stats.losses_detected << " "
       << m.stats.repairs_before_detection << " "
       << m.stats.losses_abandoned_at_crash << " "
       << m.stats.wire_packets_decoded << " " << m.stats.cache_hits << " "
       << m.stats.cache_misses << " " << m.stats.retransmissions_suppressed
       << "\n";
    for (const auto& rec : m.stats.recoveries)
      os << "  r " << rec.source << ":" << rec.seq << " "
         << rec.detect_time.ns() << ".." << rec.recover_time.ns()
         << (rec.recovered ? " ok" : " lost")
         << (rec.expedited ? " exp" : "") << " rounds=" << rec.rounds << "\n";
  }
  const auto dump = [&os](const char* tag, const auto& arr) {
    os << tag;
    for (auto v : arr) os << " " << v;
    os << "\n";
  };
  dump("multicast", r.crossings.multicast);
  dump("unicast", r.crossings.unicast);
  dump("subcast", r.crossings.subcast);
  dump("dropped", r.crossings.dropped);
  dump("duplicated", r.crossings.duplicated);
  dump("wire_bytes", r.crossings.wire_bytes);
  r.metrics.to_json(os);
  os << "\n";
  if (r.events) obs::write_events_jsonl(os, *r.events);
  if (r.sketch) r.sketch->to_json(os);
  return os.str();
}

/// FNV-1a over the fingerprint, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

ExperimentConfig golden_config(Protocol protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 77;
  cfg.max_packets = 1500;
  return cfg;
}

// These digests pin run_experiment's exact output — RNG draw order, event
// ordering, every counter and artifact. A change that moves one on purpose
// must say why; a refactor must leave all three untouched.
TEST(ExperimentGolden, SrmFaultFree) {
  const auto& w = workload();
  const auto r = run_experiment(*w.gen.loss, *w.links,
                                golden_config(Protocol::kSrm));
  EXPECT_EQ(r.packets_sent, 1500);
  EXPECT_EQ(digest(fingerprint(r)), "3fcec757d136a9a6");
}

TEST(ExperimentGolden, CesrmFaultFree) {
  const auto& w = workload();
  const auto r = run_experiment(*w.gen.loss, *w.links,
                                golden_config(Protocol::kCesrm));
  EXPECT_EQ(r.packets_sent, 1500);
  EXPECT_EQ(digest(fingerprint(r)), "0205d9045239cdc3");
}

TEST(ExperimentGolden, CesrmFaultedDurableLossyObserved) {
  const auto& w = workload();
  ExperimentConfig cfg = golden_config(Protocol::kCesrm);
  cfg.faults.crashes.push_back(
      {2, sim::SimTime::seconds(20), sim::SimTime::seconds(40)});
  cfg.faults.crashes.push_back(
      {5, sim::SimTime::seconds(30), sim::SimTime::infinity()});
  cfg.faults.outages.push_back(
      {0, 1, sim::SimTime::seconds(15), sim::SimTime::seconds(25)});
  cfg.faults.pauses.push_back(
      {sim::SimTime::seconds(35), sim::SimTime::seconds(38)});
  cfg.durable.mode = durable::DurableMode::kWarm;
  cfg.lossy_recovery = true;
  cfg.observe.trace = true;
  cfg.observe.metrics = true;
  cfg.observe.stream = true;
  const auto r = run_experiment(*w.gen.loss, *w.links, cfg);
  EXPECT_EQ(r.packets_sent, 1500);
  EXPECT_TRUE(r.members[6].failed);  // receiver rank 5 crash-stopped
  EXPECT_NE(fingerprint(r).find("fault_applied"), std::string::npos);
  EXPECT_EQ(digest(fingerprint(r)), "1df91a41a0103ed0");
}

// --------------------------------------------------------------- reports ----

TEST(Reports, Figure1RowsCoverAllReceivers) {
  const auto& w = workload();
  const auto rows = figure1(w.srm, w.cesrm);
  ASSERT_EQ(rows.size(), 7u);
  const auto stats = receiver_recovery_stats(w.srm);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].receiver, static_cast<int>(i + 1));
    if (stats[i].recovered == 0) continue;  // receiver with no losses
    EXPECT_GT(rows[i].srm_avg_norm, 0.0);
    if (rows[i].cesrm_avg_norm > 0.0) {
      EXPECT_LT(rows[i].ratio(), 1.0) << "receiver " << rows[i].receiver;
    }
  }
}

TEST(Reports, Figure1SrmLatencyInPaperBand) {
  // §3.4/§4.4: SRM first-round averages fall between 1.5 and 3.25 RTT.
  // Individual receivers can land below (when suppression lets a nearer
  // host's recovery repair them early) or above (multi-round episodes);
  // the overall mean must stay within a loose band around the paper's.
  const auto& w = workload();
  const double mean = w.srm.mean_normalized_recovery_time();
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 4.0);
  for (const auto& row : figure1(w.srm, w.cesrm)) {
    if (row.srm_avg_norm == 0.0) continue;  // receiver with no losses
    EXPECT_GT(row.srm_avg_norm, 0.3);
    EXPECT_LT(row.srm_avg_norm, 6.0);
  }
}

TEST(Reports, Figure2GainWithinPredictedBand) {
  const auto& w = workload();
  const auto rows = figure2(w.cesrm);
  ASSERT_EQ(rows.size(), 7u);
  for (const auto& row : rows) {
    if (row.expedited == 0 || row.non_expedited == 0) continue;
    // Paper: expedited recoveries are 1–2.5 RTT faster on average.
    EXPECT_GT(row.difference_rtt, 0.5) << "receiver " << row.receiver;
    EXPECT_LT(row.difference_rtt, 3.5) << "receiver " << row.receiver;
  }
}

TEST(Reports, Figure3CountsAreConsistent) {
  const auto& w = workload();
  const auto rows = figure3_requests(w.srm, w.cesrm);
  ASSERT_EQ(rows.size(), 8u);  // source + receivers
  std::uint64_t srm_total = 0, cesrm_total = 0, exp_total = 0;
  for (const auto& row : rows) {
    srm_total += row.srm;
    cesrm_total += row.cesrm;
    exp_total += row.cesrm_exp;
  }
  EXPECT_EQ(srm_total, w.srm.total_requests_sent());
  EXPECT_EQ(cesrm_total, w.cesrm.total_requests_sent());
  EXPECT_EQ(exp_total, w.cesrm.total_exp_requests_sent());
  // The source never requests.
  EXPECT_EQ(rows[0].srm, 0u);
  EXPECT_EQ(rows[0].cesrm, 0u);
  EXPECT_EQ(rows[0].cesrm_exp, 0u);
}

TEST(Reports, Figure4RepliesShrinkUnderCesrm) {
  const auto& w = workload();
  const auto rows = figure4_replies(w.srm, w.cesrm);
  std::uint64_t srm_total = 0, cesrm_total = 0;
  for (const auto& row : rows) {
    srm_total += row.srm;
    cesrm_total += row.cesrm + row.cesrm_exp;
  }
  // Paper: CESRM sends 30–80% of SRM's retransmissions.
  EXPECT_LT(cesrm_total, srm_total);
}

TEST(Reports, Figure5PercentagesInPaperBands) {
  const auto& w = workload();
  const auto f5 = figure5(w.srm, w.cesrm);
  EXPECT_EQ(f5.trace_name, "HARNESS");
  EXPECT_GT(f5.pct_successful_expedited, 60.0);
  EXPECT_LE(f5.pct_successful_expedited, 100.0);
  EXPECT_LT(f5.retransmission_pct_of_srm, 100.0);
  EXPECT_GT(f5.retransmission_pct_of_srm, 0.0);
  EXPECT_LT(f5.total_control_pct_of_srm(), 110.0);
  EXPECT_GT(f5.control_unicast_pct_of_srm, 0.0);
}

TEST(Reports, AnalysisBoundsMatchSection34) {
  srm::SrmConfig cfg;  // C1=C2=2, D1=D2=1
  const auto b = analysis_bounds(cfg);
  EXPECT_DOUBLE_EQ(b.srm_first_round_bound_d, 6.5);
  EXPECT_DOUBLE_EQ(b.srm_first_round_bound_rtt, 3.25);
  EXPECT_DOUBLE_EQ(b.expedited_bound_rtt, 1.0);
  EXPECT_DOUBLE_EQ(b.predicted_gain_rtt, 2.25);
}

TEST(Reports, ReceiverStatsSplitExpedited) {
  const auto& w = workload();
  for (const auto& r : receiver_recovery_stats(w.cesrm)) {
    EXPECT_EQ(r.losses, r.recovered);  // lossless recovery
    EXPECT_LE(r.expedited, r.recovered);
    if (r.expedited > 0 && r.expedited < r.recovered) {
      EXPECT_LT(r.avg_norm_expedited, r.avg_norm_non_expedited);
    }
  }
}

TEST(Reports, ProtocolNames) {
  EXPECT_STREQ(protocol_name(Protocol::kSrm), "SRM");
  EXPECT_STREQ(protocol_name(Protocol::kCesrm), "CESRM");
}

}  // namespace
}  // namespace cesrm::harness
