// policy_explorer.cpp — interactive exploration of the §3.2 design space:
// expedition policy × cache capacity × REORDER-DELAY on a chosen Table-1
// trace. This is the example to start from when tuning CESRM for a new
// deployment: it shows how each knob moves the latency/overhead trade-off.
//
//   ./policy_explorer [--trace=7] [--packets-cap=15000]

#include <iostream>

#include "harness/experiment.hpp"
#include "harness/reports.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cesrm;

  util::CliFlags flags("Explore CESRM's policy / cache / REORDER-DELAY knobs");
  flags.add_int("trace", 7, "Table-1 trace id (1-14)");
  flags.add_int("packets-cap", 15000, "cap packets (0 = full trace)");
  if (!flags.parse(argc, argv)) return 1;

  const trace::TraceSpec spec = trace::capped_spec(
      trace::table1_spec(static_cast<int>(flags.get_int("trace"))),
      flags.get_int("packets-cap"));
  std::cout << "Trace " << spec.name << ": " << spec.packets
            << " packets, " << spec.receivers << " receivers\n";
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);

  // SRM baseline once.
  harness::ExperimentConfig base;
  base.protocol = Protocol::kSrm;
  const auto srm = harness::run_experiment(*gen.loss, links, base);
  const double srm_latency = srm.mean_normalized_recovery_time();
  std::cout << "SRM baseline: " << util::fmt_fixed(srm_latency, 3)
            << " RTT mean recovery\n\n";

  struct Knobs {
    const char* label;
    ::cesrm::cesrm::ExpeditionPolicy policy;
    std::size_t capacity;
    int reorder_delay_ms;
  };
  const Knobs grid[] = {
      {"most-recent  cap=1   rd=0ms", ::cesrm::cesrm::ExpeditionPolicy::kMostRecent, 1, 0},
      {"most-recent  cap=16  rd=0ms", ::cesrm::cesrm::ExpeditionPolicy::kMostRecent, 16, 0},
      {"most-recent  cap=1   rd=10ms", ::cesrm::cesrm::ExpeditionPolicy::kMostRecent, 1, 10},
      {"most-recent  cap=1   rd=40ms", ::cesrm::cesrm::ExpeditionPolicy::kMostRecent, 1, 40},
      {"most-frequent cap=8  rd=0ms", ::cesrm::cesrm::ExpeditionPolicy::kMostFrequent, 8, 0},
      {"most-frequent cap=32 rd=0ms", ::cesrm::cesrm::ExpeditionPolicy::kMostFrequent, 32, 0},
  };

  util::TextTable table("CESRM variants:");
  table.set_header({"variant", "rec time (RTT)", "vs SRM %", "exp succ %",
                    "exp cancelled", "retrans % of SRM"});
  table.set_align(0, util::Align::kLeft);
  for (const auto& k : grid) {
    harness::ExperimentConfig cfg;
    cfg.protocol = Protocol::kCesrm;
    cfg.cesrm.policy = k.policy;
    cfg.cesrm.cache.capacity = k.capacity;
    cfg.cesrm.reorder_delay = sim::SimTime::millis(k.reorder_delay_ms);
    const auto run = harness::run_experiment(*gen.loss, links, cfg);
    const auto f5 = harness::figure5(srm, run);
    std::uint64_t cancelled = 0;
    for (const auto& m : run.members)
      cancelled += m.stats.exp_requests_cancelled;
    const double latency = run.mean_normalized_recovery_time();
    table.add_row({k.label, util::fmt_fixed(latency, 3),
                   util::fmt_fixed(100.0 * latency / srm_latency, 1),
                   util::fmt_fixed(f5.pct_successful_expedited, 1),
                   util::fmt_count(cancelled),
                   util::fmt_fixed(f5.retransmission_pct_of_srm, 1)});
  }
  table.print();

  std::cout << "\nReading the grid: the most-recent policy with a "
               "single-entry cache already captures\nthe win (the paper's "
               "configuration); growing the cache only matters for "
               "most-frequent;\nREORDER-DELAY trades a little latency for "
               "robustness to reordering (none here, so\nit is pure "
               "latency; cancellations appear once other recoveries beat "
               "the timer).\n";
  return 0;
}
