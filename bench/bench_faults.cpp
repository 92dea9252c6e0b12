// bench_faults — graceful degradation under the shipped fault scenarios.
//
// §3.3 argues that CESRM degrades gracefully: when the expedited path is
// disturbed — a cached replier crashes, a subtree partitions, the source
// stalls, control traffic gets lossy, packets duplicate or jitter — the
// parallel SRM scheme still repairs every loss and the caches re-seed
// themselves. This bench runs every shipped FaultPlan scenario
// (src/fault/fault_plan.hpp) over the selected Table-1 traces for both
// protocols and reports, per (trace, scenario, protocol): the expedited
// success rate, the share of recoveries completed by the SRM fallback, the
// mean normalized recovery latency, and the unrecovered count. Every run
// is watched by the InvariantOracle, so a scenario that stalls recovery or
// fires a timer on a crashed member aborts the bench with a reproduction
// line rather than printing wrong numbers.
//
// The fan-out goes through the parallel ExperimentRunner; stdout is
// byte-identical for any --jobs value.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "durable/store.hpp"
#include "fault/fault_plan.hpp"
#include "util/stats.hpp"

namespace {

using namespace cesrm;

/// The scenario timeline of a capped spec: data flows over
/// [kWarmup, kWarmup + period · packets).
fault::ScenarioContext context_for(const trace::TraceSpec& spec) {
  fault::ScenarioContext ctx;
  ctx.receivers = spec.receivers;
  ctx.data_start = harness::kWarmup;
  ctx.data_end = harness::kWarmup + sim::SimTime::millis(spec.period_ms) *
                                        static_cast<std::int64_t>(spec.packets);
  return ctx;
}

std::uint64_t expedited_recovered(const harness::ExperimentResult& result) {
  std::uint64_t n = 0;
  for (const auto& m : result.members)
    for (const auto& r : m.stats.recoveries)
      if (r.recovered && r.expedited) ++n;
  return n;
}

/// Restart catch-up statistics over the plan's crashed-then-recovered
/// members (crash rank r is result.members[1+r] — members are ordered
/// source first, then receivers in tree order, and crash ranks index
/// tree.receivers()). Only *gap* recoveries count: packets transmitted
/// before the member's recover_at, recovered after it — the steady-state
/// losses the member keeps suffering after rejoining would otherwise
/// drown the restart signal.
struct CatchUpStats {
  double mean_latency = 0.0;     ///< mean per-loss recovery latency, s
  double mean_completion = 0.0;  ///< mean time from restart to last gap
                                 ///< recovery, s
  std::uint64_t recoveries = 0;  ///< gap recoveries counted
};

CatchUpStats catch_up_stats(const harness::ExperimentResult& result,
                            const fault::FaultPlan& plan,
                            const trace::TraceSpec& spec,
                            sim::SimTime data_start) {
  CatchUpStats out;
  double latency_sum = 0.0;
  double completion_sum = 0.0;
  int members = 0;
  for (const auto& crash : plan.crashes) {
    if (!crash.recovers() || crash.receiver_rank < 0) continue;
    const std::size_t idx = static_cast<std::size_t>(1 + crash.receiver_rank);
    if (idx >= result.members.size()) continue;
    // Packets transmitted before the restart instant.
    const auto gap_end = static_cast<net::SeqNo>(
        (crash.recover_at - data_start).to_seconds() * 1000.0 /
        static_cast<double>(spec.period_ms));
    double member_latency = 0.0;
    double completion = 0.0;
    std::uint64_t n = 0;
    for (const auto& r : result.members[idx].stats.recoveries) {
      if (!r.recovered || r.recover_time < crash.recover_at ||
          r.seq > gap_end)
        continue;
      member_latency += r.latency_seconds();
      completion = std::max(
          completion, (r.recover_time - crash.recover_at).to_seconds());
      ++n;
    }
    if (n == 0) continue;
    latency_sum += member_latency / static_cast<double>(n);
    completion_sum += completion;
    out.recoveries += n;
    ++members;
  }
  if (members > 0) {
    out.mean_latency = latency_sum / members;
    out.mean_completion = completion_sum / members;
  }
  return out;
}

std::uint64_t total_suppressed(const harness::ExperimentResult& result) {
  std::uint64_t n = 0;
  for (const auto& m : result.members)
    n += m.stats.retransmissions_suppressed;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(
      "Fault scenarios: §3.3 graceful degradation, oracle-checked");
  bench::add_common_flags(flags, "1,7,13");
  if (!flags.parse(argc, argv)) return 1;
  bench::BenchOptions opts;
  if (!bench::read_common_flags(flags, &opts)) return 1;
  if (opts.packets_cap == 0) opts.packets_cap = 8000;
  bench::print_header("Fault injection (§3.3) — shipped scenarios", opts);

  // One job per (trace, scenario, protocol); the scenario plans anchor to
  // each capped spec's own timeline, so every trace sees the same relative
  // fault schedule.
  struct JobMeta {
    trace::TraceSpec spec;
    std::string scenario;
  };
  std::vector<harness::ExperimentJob> jobs;
  std::vector<JobMeta> meta;
  for (const auto& spec : bench::selected_specs(opts)) {
    const auto ctx = context_for(spec);
    for (const auto& scenario : fault::shipped_scenarios(ctx)) {
      for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
        harness::ExperimentJob job;
        job.spec = spec;
        job.protocol = protocol;
        job.config = opts.base;
        job.config.faults = scenario.plan;
        job.label = scenario.name;
        jobs.push_back(std::move(job));
        meta.push_back({spec, scenario.name});
      }
    }
  }

  harness::JsonResultSink sink;
  const auto outcomes =
      bench::run_jobs(std::move(jobs), opts,
                      opts.json_path.empty() ? nullptr : &sink);

  util::TextTable table;
  table.set_header({"Trace", "scenario", "protocol", "exp success %",
                    "fallback share %", "recovery (RTT)", "unrecovered"});
  table.set_align(0, util::Align::kLeft);
  table.set_align(1, util::Align::kLeft);
  table.set_align(2, util::Align::kLeft);

  std::string last_trace, last_scenario;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& result = outcomes[i].result;
    const auto& m = meta[i];
    if (i > 0 && m.spec.name != last_trace) table.add_rule();

    const std::uint64_t recovered = result.total_recovered();
    const std::uint64_t expedited = expedited_recovered(result);
    const std::uint64_t erqst = result.total_exp_requests_sent();
    const std::uint64_t erepl = result.total_exp_replies_sent();
    const bool cesrm_row = outcomes[i].protocol == Protocol::kCesrm;

    table.add_row(
        {m.spec.name == last_trace ? "" : m.spec.name,
         m.spec.name == last_trace && m.scenario == last_scenario
             ? ""
             : m.scenario,
         protocol_name(outcomes[i].protocol),
         cesrm_row && erqst
             ? util::fmt_fixed(100.0 * static_cast<double>(erepl) /
                                   static_cast<double>(erqst),
                               1)
             : "-",
         recovered ? util::fmt_fixed(
                         100.0 * static_cast<double>(recovered - expedited) /
                             static_cast<double>(recovered),
                         1)
                   : "-",
         util::fmt_fixed(result.mean_normalized_recovery_time(), 3),
         util::fmt_count(result.total_unrecovered())});
    last_trace = m.spec.name;
    last_scenario = m.scenario;
  }
  table.print();
  std::cout << "\n(every run passed the liveness/safety oracle: no stalled "
               "recovery, no timer fired on a\ncrashed member, every live "
               "member ended holding every packet a live member holds; "
               "SRM's\nfallback share is 100% by construction, CESRM's drops "
               "by its expedited recoveries)\n";

  // --- warm vs cold restart (src/durable) ---------------------------------
  // The crash-recover scenario again, CESRM only, with durable recovery
  // state: a cold restart loses all volatile recovery state (the caches
  // re-seed from scratch, catch-up runs on plain SRM request races until
  // they do); a warm restart replays the write-behind journal, so the
  // restored RecoveryCache steers catch-up losses onto expedited repairs
  // from the first request, and the restored reply ledger keeps
  // retransmissions exactly-once across the crash. "restart latency (s)"
  // is the headline: the mean per-loss recovery latency of the *gap*
  // recoveries (packets transmitted before the restart, recovered after
  // it), averaged over crashed members; "catch-up (s)" is the mean time
  // from restart to a member's last gap recovery (its floor is the paced
  // catch-up release cadence, so the latency column is where warmth
  // shows).
  std::vector<harness::ExperimentJob> djobs;
  struct DurableMeta {
    trace::TraceSpec spec;
    fault::FaultPlan plan;
    sim::SimTime data_start;
    durable::DurableMode mode;
  };
  std::vector<DurableMeta> dmeta;
  for (const auto& spec : bench::selected_specs(opts)) {
    const auto ctx = context_for(spec);
    const auto plan = fault::crash_recover_plan(ctx);
    for (const durable::DurableMode mode :
         {durable::DurableMode::kCold, durable::DurableMode::kWarm}) {
      harness::ExperimentJob job;
      job.spec = spec;
      job.protocol = Protocol::kCesrm;
      job.config = opts.base;
      job.config.faults = plan;
      job.config.durable.mode = mode;
      job.label = std::string("restart/") + durable::durable_mode_name(mode);
      djobs.push_back(std::move(job));
      dmeta.push_back({spec, plan, ctx.data_start, mode});
    }
  }
  const auto doutcomes =
      bench::run_jobs(std::move(djobs), opts,
                      opts.json_path.empty() ? nullptr : &sink);

  util::TextTable dtable(
      "Crash-restart with durable recovery state (CESRM, crash_recover):");
  dtable.set_header({"Trace", "restart", "restart latency (s)",
                     "catch-up (s)", "suppressed", "unrecovered"});
  dtable.set_align(0, util::Align::kLeft);
  dtable.set_align(1, util::Align::kLeft);
  std::string last_dtrace;
  double agg_latency[2] = {0.0, 0.0};  // [cold, warm] across traces
  int agg_traces = 0;
  for (std::size_t i = 0; i < doutcomes.size(); ++i) {
    const auto& result = doutcomes[i].result;
    const auto& m = dmeta[i];
    if (i > 0 && m.spec.name != last_dtrace) dtable.add_rule();
    const CatchUpStats cu =
        catch_up_stats(result, m.plan, m.spec, m.data_start);
    const bool warm = m.mode == durable::DurableMode::kWarm;
    agg_latency[warm ? 1 : 0] += cu.mean_latency;
    if (warm) ++agg_traces;
    dtable.add_row({m.spec.name == last_dtrace ? "" : m.spec.name,
                    durable::durable_mode_name(m.mode),
                    util::fmt_fixed(cu.mean_latency, 3),
                    util::fmt_fixed(cu.mean_completion, 3),
                    util::fmt_count(total_suppressed(result)),
                    util::fmt_count(result.total_unrecovered())});
    last_dtrace = m.spec.name;
  }
  if (agg_traces > 0) {
    dtable.add_rule();
    dtable.add_row({"mean", "cold",
                    util::fmt_fixed(agg_latency[0] / agg_traces, 3), "", "",
                    ""});
    dtable.add_row({"", "warm",
                    util::fmt_fixed(agg_latency[1] / agg_traces, 3), "", "",
                    ""});
  }
  dtable.print();
  std::cout << "\n(a warm restart replays the journal before rejoining: the "
               "restored cache names a\nviable replier for every catch-up "
               "loss, so recovery runs expedited instead of\nwaiting out "
               "SRM request races until the cache re-seeds; the restored "
               "reply ledger\nkeeps retransmissions exactly-once across the "
               "crash, enforced by the oracle)\n";

  bench::write_json(opts, sink);
  return bench::slo_exit(opts);
}
