// Tests for the parallel experiment runner: the determinism contract
// (outcomes are identical field-for-field for any worker count), the
// build-once trace cache, progress reporting, and the parallel_for
// substrate it is all built on.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "harness/reports.hpp"
#include "harness/runner.hpp"
#include "trace/catalog.hpp"

namespace cesrm {
namespace {

using harness::ExperimentJob;
using harness::ExperimentRunner;
using harness::JobOutcome;
using harness::RunnerOptions;

/// A Table-1 spec scaled down so runner tests stay fast.
trace::TraceSpec small_spec(int table1_id, net::SeqNo packets) {
  trace::TraceSpec spec = trace::table1_spec(table1_id);
  spec.losses = static_cast<std::int64_t>(
      static_cast<double>(spec.losses) * static_cast<double>(packets) /
      static_cast<double>(spec.packets));
  spec.packets = packets;
  return spec;
}

std::vector<ExperimentJob> standard_jobs() {
  std::vector<ExperimentJob> jobs;
  for (int id : {1, 2}) {
    for (const auto protocol : {Protocol::kSrm, Protocol::kCesrm}) {
      ExperimentJob job;
      job.spec = small_spec(id, 400);
      job.protocol = protocol;
      job.label = protocol_name(protocol);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

void expect_results_identical(const harness::ExperimentResult& a,
                              const harness::ExperimentResult& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.trace_name, b.trace_name);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.sim_end.ns(), b.sim_end.ns());
  EXPECT_EQ(a.total_losses_detected(), b.total_losses_detected());
  EXPECT_EQ(a.total_silent_repairs(), b.total_silent_repairs());
  EXPECT_EQ(a.total_recovered(), b.total_recovered());
  EXPECT_EQ(a.total_unrecovered(), b.total_unrecovered());
  EXPECT_EQ(a.total_requests_sent(), b.total_requests_sent());
  EXPECT_EQ(a.total_replies_sent(), b.total_replies_sent());
  EXPECT_EQ(a.total_exp_requests_sent(), b.total_exp_requests_sent());
  EXPECT_EQ(a.total_exp_replies_sent(), b.total_exp_replies_sent());
  // Bit-identical recovery timing, not just equal aggregates.
  EXPECT_DOUBLE_EQ(a.mean_normalized_recovery_time(),
                   b.mean_normalized_recovery_time());
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    const auto& ma = a.members[m];
    const auto& mb = b.members[m];
    EXPECT_EQ(ma.node, mb.node);
    ASSERT_EQ(ma.stats.recoveries.size(), mb.stats.recoveries.size());
    // Every field of every record, in order.
    EXPECT_TRUE(ma.stats.recoveries == mb.stats.recoveries) << "member " << m;
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  harness::parallel_for(hits.size(), 4,
                        [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialWhenOneWorker) {
  // With one worker the calls happen on the calling thread, in order.
  std::vector<std::size_t> order;
  harness::parallel_for(8, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      harness::parallel_for(16, 4,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
}

TEST(Runner, JobCountIndependence) {
  // The determinism contract: jobs=1 and jobs=4 outcomes are identical
  // field for field.
  RunnerOptions serial;
  serial.jobs = 1;
  ExperimentRunner runner1(serial);
  const auto serial_outcomes = runner1.run(standard_jobs());

  RunnerOptions pooled;
  pooled.jobs = 4;
  ExperimentRunner runner4(pooled);
  const auto pooled_outcomes = runner4.run(standard_jobs());

  ASSERT_EQ(serial_outcomes.size(), pooled_outcomes.size());
  for (std::size_t i = 0; i < serial_outcomes.size(); ++i) {
    EXPECT_EQ(serial_outcomes[i].index, i);
    EXPECT_EQ(pooled_outcomes[i].index, i);
    EXPECT_EQ(serial_outcomes[i].protocol, pooled_outcomes[i].protocol);
    EXPECT_EQ(serial_outcomes[i].label, pooled_outcomes[i].label);
    expect_results_identical(serial_outcomes[i].result,
                             pooled_outcomes[i].result);
  }
}

TEST(Runner, CacheSharesOnePreparedTracePerSpec) {
  RunnerOptions options;
  options.jobs = 4;
  ExperimentRunner runner(options);
  const auto outcomes = runner.run(standard_jobs());

  // 4 jobs over 2 distinct specs -> 2 cache entries, and jobs on the same
  // spec hold the *same* PreparedTrace instance, not copies.
  EXPECT_EQ(runner.cache().size(), 2u);
  ASSERT_EQ(outcomes.size(), 4u);
  ASSERT_NE(outcomes[0].trace, nullptr);
  EXPECT_EQ(outcomes[0].trace.get(), outcomes[1].trace.get());
  EXPECT_EQ(outcomes[2].trace.get(), outcomes[3].trace.get());
  EXPECT_NE(outcomes[0].trace.get(), outcomes[2].trace.get());
}

TEST(Runner, ProgressFiresOncePerJob) {
  std::mutex mu;
  std::vector<std::size_t> seen_indices;
  std::vector<std::size_t> seen_done;
  std::size_t seen_total = 0;

  RunnerOptions options;
  options.jobs = 4;
  options.on_progress = [&](const JobOutcome& outcome, std::size_t done,
                            std::size_t total) {
    std::lock_guard<std::mutex> lock(mu);
    seen_indices.push_back(outcome.index);
    seen_done.push_back(done);
    seen_total = total;
  };
  ExperimentRunner runner(options);
  const auto outcomes = runner.run(standard_jobs());

  EXPECT_EQ(seen_total, outcomes.size());
  ASSERT_EQ(seen_indices.size(), outcomes.size());
  // Each job reported exactly once...
  EXPECT_EQ(std::set<std::size_t>(seen_indices.begin(), seen_indices.end())
                .size(),
            outcomes.size());
  // ...and the done counter counted 1..N in callback order.
  for (std::size_t i = 0; i < seen_done.size(); ++i)
    EXPECT_EQ(seen_done[i], i + 1);
}

TEST(Runner, JsonSinkRoundTrip) {
  ExperimentJob job;
  job.spec = small_spec(1, 300);
  job.protocol = Protocol::kCesrm;
  job.label = "smoke";
  ExperimentRunner runner;
  const auto outcomes = runner.run({job});
  ASSERT_EQ(outcomes.size(), 1u);

  harness::JsonResultSink sink;
  sink.add(outcomes[0].result, outcomes[0].wall_seconds, outcomes[0].label);
  const std::string doc = sink.document();
  EXPECT_NE(doc.find("\"results\""), std::string::npos);
  EXPECT_NE(doc.find("\"protocol\":\"CESRM\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\":\"smoke\""), std::string::npos);
  EXPECT_NE(doc.find("\"wall_seconds\""), std::string::npos);
  EXPECT_EQ(sink.size(), 1u);
}

}  // namespace
}  // namespace cesrm
