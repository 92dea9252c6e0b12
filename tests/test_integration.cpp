// End-to-end integration tests: the full pipeline (Table-1 spec → trace
// generation → §4.2 inference → trace-driven SRM and CESRM simulation →
// figure computation), exercised on scaled-down Table-1 workloads, plus
// cross-cutting ablations (policies, router assist, link delays).
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/reports.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"

namespace cesrm {
namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;


/// A Table-1 spec scaled down to `packets` so integration tests stay fast
/// while preserving the published shape and loss *rate*.
trace::TraceSpec scaled_spec(int table1_id, net::SeqNo packets) {
  return trace::capped_spec(trace::table1_spec(table1_id), packets);
}

struct PipelineRun {
  explicit PipelineRun(const trace::TraceSpec& spec,
                       ExperimentConfig cfg = {}) {
    gen = trace::generate_trace(spec);
    const auto est = infer::estimate_links_yajnik(*gen.loss);
    links = std::make_unique<infer::LinkTraceRepresentation>(*gen.loss,
                                                             est.loss_rate);
    cfg.protocol = Protocol::kSrm;
    srm = harness::run_experiment(*gen.loss, *links, cfg);
    cfg.protocol = Protocol::kCesrm;
    cesrm = harness::run_experiment(*gen.loss, *links, cfg);
  }
  trace::GeneratedTrace gen;
  std::unique_ptr<infer::LinkTraceRepresentation> links;
  ExperimentResult srm;
  ExperimentResult cesrm;
};

TEST(Integration, ScaledTrace1ReproducesHeadlineResults) {
  PipelineRun run(scaled_spec(1, 6000));
  // Everything recovered.
  EXPECT_EQ(run.srm.total_unrecovered(), 0u);
  EXPECT_EQ(run.cesrm.total_unrecovered(), 0u);
  // Figure 1 shape: CESRM substantially faster overall.
  EXPECT_LT(run.cesrm.mean_normalized_recovery_time(),
            0.75 * run.srm.mean_normalized_recovery_time());
  // Figure 5 shape.
  const auto f5 = harness::figure5(run.srm, run.cesrm);
  EXPECT_GT(f5.pct_successful_expedited, 50.0);
  EXPECT_LT(f5.retransmission_pct_of_srm, 100.0);
}

TEST(Integration, ScaledTrace13HighLossRate) {
  // Trace 13 has the highest per-receiver loss rate (~9.4%) and a shallow
  // tree — a stress case for suppression and the cache.
  PipelineRun run(scaled_spec(13, 6000));
  EXPECT_EQ(run.srm.total_unrecovered(), 0u);
  EXPECT_EQ(run.cesrm.total_unrecovered(), 0u);
  EXPECT_LT(run.cesrm.mean_normalized_recovery_time(),
            run.srm.mean_normalized_recovery_time());
}

TEST(Integration, MostFrequentPolicyAlsoWorks) {
  ExperimentConfig cfg;
  cfg.cesrm.policy = cesrm::ExpeditionPolicy::kMostFrequent;
  cfg.cesrm.cache.capacity = 16;
  PipelineRun run(scaled_spec(4, 5000), cfg);
  EXPECT_EQ(run.cesrm.total_unrecovered(), 0u);
  EXPECT_GT(run.cesrm.total_exp_replies_sent(), 0u);
  EXPECT_LT(run.cesrm.mean_normalized_recovery_time(),
            run.srm.mean_normalized_recovery_time());
}

TEST(Integration, RouterAssistReducesExpeditedReplyExposure) {
  const auto spec = scaled_spec(7, 5000);
  ExperimentConfig plain_cfg;
  PipelineRun plain(spec, plain_cfg);
  ExperimentConfig assist_cfg;
  assist_cfg.cesrm.router_assist = true;
  PipelineRun assisted(spec, assist_cfg);

  EXPECT_EQ(assisted.cesrm.total_unrecovered(), 0u);
  // Exposure per expedited reply: multicast costs every link; the
  // localized path costs the unicast leg plus the turning-point subtree.
  const auto exposure = [](const ExperimentResult& r) {
    const auto& c = r.crossings;
    const double replies =
        static_cast<double>(r.total_exp_replies_sent());
    if (replies == 0) return 0.0;
    return static_cast<double>(
               c.total_of(net::PacketType::kExpReply)) /
           replies;
  };
  EXPECT_GT(exposure(plain.cesrm), 0.0);
  EXPECT_LT(exposure(assisted.cesrm), exposure(plain.cesrm));
}

TEST(Integration, LinkDelayVariationPreservesShape) {
  // §4.3: results with 10/20/30 ms links "were very similar" (recovery
  // times are normalized by RTT).
  const auto spec = scaled_spec(5, 4000);
  for (int delay_ms : {10, 20, 30}) {
    ExperimentConfig cfg;
    cfg.network.link_delay = sim::SimTime::millis(delay_ms);
    PipelineRun run(spec, cfg);
    EXPECT_EQ(run.cesrm.total_unrecovered(), 0u) << delay_ms << " ms";
    EXPECT_LT(run.cesrm.mean_normalized_recovery_time(),
              run.srm.mean_normalized_recovery_time())
        << delay_ms << " ms";
    const auto f5 = harness::figure5(run.srm, run.cesrm);
    EXPECT_GT(f5.pct_successful_expedited, 40.0) << delay_ms << " ms";
  }
}

TEST(Integration, SessionDistancesTrackOracleClosely) {
  // Estimated distances equal the true path delays during the data-free
  // warm-up; once data flows, session packets occasionally queue behind
  // 1 KB payloads, inflating an estimate by up to a few serialization
  // times. Behaviour must stay very close to the oracle run.
  const auto spec = scaled_spec(4, 3000);
  ExperimentConfig est_cfg;
  est_cfg.cesrm.srm.oracle_distances = false;
  PipelineRun est(spec, est_cfg);
  ExperimentConfig oracle_cfg;
  oracle_cfg.cesrm.srm.oracle_distances = true;
  PipelineRun oracle(spec, oracle_cfg);
  EXPECT_EQ(est.cesrm.total_unrecovered(), 0u);
  EXPECT_EQ(oracle.cesrm.total_unrecovered(), 0u);
  // Same loss volume accounted for under both modes.
  EXPECT_EQ(est.cesrm.total_losses_detected() +
                est.cesrm.total_silent_repairs(),
            oracle.cesrm.total_losses_detected() +
                oracle.cesrm.total_silent_repairs());
  // Latency within 15% — the estimate noise only jitters timer draws.
  const double a = est.cesrm.mean_normalized_recovery_time();
  const double b = oracle.cesrm.mean_normalized_recovery_time();
  EXPECT_NEAR(a, b, 0.15 * b);
}

TEST(Integration, WholePipelineIsDeterministic) {
  const auto spec = scaled_spec(6, 3000);
  PipelineRun a(spec);
  PipelineRun b(spec);
  EXPECT_EQ(a.cesrm.events_executed, b.cesrm.events_executed);
  EXPECT_EQ(a.cesrm.total_requests_sent(), b.cesrm.total_requests_sent());
  EXPECT_EQ(a.cesrm.total_exp_requests_sent(),
            b.cesrm.total_exp_requests_sent());
  EXPECT_DOUBLE_EQ(a.srm.mean_normalized_recovery_time(),
                   b.srm.mean_normalized_recovery_time());
}

TEST(Integration, ExpeditedShareGrowsWithLossLocality) {
  // Traces with strong pattern locality should see most losses recovered
  // expedited (after the first of each burst).
  PipelineRun run(scaled_spec(11, 5000));
  const double locality = run.gen.loss->pattern_repeat_fraction();
  std::uint64_t expedited = 0, recovered = 0;
  for (const auto& m : run.cesrm.members)
    for (const auto& r : m.stats.recoveries) {
      recovered += r.recovered;
      expedited += r.recovered && r.expedited;
    }
  ASSERT_GT(recovered, 0u);
  const double share = static_cast<double>(expedited) /
                       static_cast<double>(recovered);
  EXPECT_GT(locality, 0.3);
  EXPECT_GT(share, 0.25);
}

}  // namespace
}  // namespace cesrm
