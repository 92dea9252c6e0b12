// trace_replay.cpp — the full trace-driven methodology on one Table-1
// trace, exercising the serialization API along the way:
//
//   1. generate the Table-1 trace (or reload it from a previously saved
//      file — the round trip is exact),
//   2. estimate link loss rates two ways (Yajnik direct and Cáceres MLE)
//      and show they agree (the paper's §4.2 cross-check),
//   3. build the link trace representation and report its confidence,
//   4. replay the transmission under SRM and CESRM and print the
//      trace-level summary.
//
//   ./trace_replay [--trace=4] [--packets-cap=20000] [--save=/tmp/t.trace]

#include <cmath>
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/reports.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "infer/minc_estimator.hpp"
#include "trace/catalog.hpp"
#include "trace/serialization.hpp"
#include "trace/trace_generator.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cesrm;

  util::CliFlags flags("Replay one Table-1 trace through the full pipeline");
  flags.add_int("trace", 4, "Table-1 trace id (1-14)");
  flags.add_int("packets-cap", 20000, "cap packets (0 = full trace)");
  flags.add_string("save", "", "optionally save the generated trace here");
  if (!flags.parse(argc, argv)) return 1;

  const trace::TraceSpec spec = trace::capped_spec(
      trace::table1_spec(static_cast<int>(flags.get_int("trace"))),
      flags.get_int("packets-cap"));

  std::cout << "Trace " << spec.id << " (" << spec.name << "): "
            << spec.receivers << " receivers, depth " << spec.depth << ", "
            << spec.packets << " packets @ " << spec.period_ms << " ms\n";
  const auto gen = trace::generate_trace(spec);

  // Serialization round trip (and optional export).
  const std::string save_path = flags.get_string("save");
  if (!save_path.empty()) {
    trace::save_trace(save_path, *gen.loss, &gen.true_drop_links);
    const auto reloaded = trace::load_trace(save_path);
    std::cout << "saved to " << save_path << " and reloaded: "
              << reloaded.loss->total_losses() << " losses (round trip "
              << (reloaded.loss->total_losses() == gen.loss->total_losses()
                      ? "exact"
                      : "MISMATCH")
              << ")\n";
  }

  // §4.2: both estimators, side by side.
  const auto yajnik = infer::estimate_links_yajnik(*gen.loss);
  const auto minc = infer::estimate_links_minc(*gen.loss);
  util::TextTable est("\nPer-link loss-rate estimates (both §4.2 methods):");
  est.set_header({"link", "true rate", "Yajnik", "MINC", "identifiable"});
  double max_diff = 0.0;
  for (net::LinkId l : gen.loss->tree().links()) {
    const auto li = static_cast<std::size_t>(l);
    est.add_row({std::to_string(l),
                 util::fmt_fixed(gen.link_loss_rate[li], 4),
                 util::fmt_fixed(yajnik.loss_rate[li], 4),
                 util::fmt_fixed(minc.loss_rate[li], 4),
                 minc.identifiable[li] ? "yes" : "chain"});
    if (minc.identifiable[li])
      max_diff = std::max(max_diff, std::abs(yajnik.loss_rate[li] -
                                             minc.loss_rate[li]));
  }
  est.print();
  std::cout << "max |Yajnik - MINC| on identifiable links: "
            << util::fmt_fixed(max_diff, 4)
            << "  (paper: the methods yield very similar estimates)\n";

  infer::LinkTraceRepresentation links(*gen.loss, yajnik.loss_rate);
  std::cout << "\nlink trace representation: "
            << util::fmt_fixed(100.0 * links.fraction_confident(0.95), 1)
            << "% of lossy packets explained with >95% posterior, "
            << util::fmt_fixed(
                   100.0 * links.truth_match_fraction(gen.true_drop_links), 1)
            << "% match ground truth\n\n";

  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kSrm;
  const auto srm = harness::run_experiment(*gen.loss, links, cfg);
  cfg.protocol = Protocol::kCesrm;
  const auto cesrm = harness::run_experiment(*gen.loss, links, cfg);

  const auto f5 = harness::figure5(srm, cesrm);
  std::cout << "SRM:   " << util::fmt_fixed(
                   srm.mean_normalized_recovery_time(), 3)
            << " RTT mean recovery, "
            << util::fmt_count(srm.total_replies_sent()) << " replies, "
            << util::fmt_count(srm.total_requests_sent()) << " requests\n"
            << "CESRM: " << util::fmt_fixed(
                   cesrm.mean_normalized_recovery_time(), 3)
            << " RTT mean recovery, "
            << util::fmt_count(cesrm.total_replies_sent() +
                               cesrm.total_exp_replies_sent())
            << " replies, "
            << util::fmt_count(cesrm.total_requests_sent()) << "+"
            << util::fmt_count(cesrm.total_exp_requests_sent())
            << " requests (multicast+unicast)\n"
            << "expedited success "
            << util::fmt_fixed(f5.pct_successful_expedited, 1)
            << "%, retransmission overhead "
            << util::fmt_fixed(f5.retransmission_pct_of_srm, 1)
            << "% of SRM\n";
  return 0;
}
