// bench_ablation — the one-setting sweeps the paper remarks on around its
// headline runs, each against a reference on a few traces:
//
//   A  expedition policy (§3.2) and cache capacity;
//   B  lossy recovery traffic (§4.3);
//   C  link delay 10/20/30 ms (§4.3);
//   D  adaptive SRM timers (Floyd et al. §V) vs CESRM;
//   and router-assisted CESRM (§3.3).
//
// Each axis is data: a title, its default traces, its variants (a label,
// a protocol and a config edit) and a row function for its table. One
// loop puts every axis's jobs into one runner batch, so one trace cache
// serves all axes, then hands each axis its outcomes in job order.
// Without --traces each axis runs its own trace list; an explicit
// --traces applies to every axis. Traces are capped at 20 000 packets
// unless --packets-cap says otherwise.

#include <functional>
#include <iostream>
#include <span>

#include "bench_common.hpp"

namespace {

using namespace cesrm;
using ::cesrm::cesrm::ExpeditionPolicy;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::JobOutcome;
using Row = std::vector<std::string>;
using Outcomes = std::span<const JobOutcome>;
using ConfigEdit = std::function<void(ExperimentConfig&)>;

/// One run per trace: the label its JSON result, trace capture and
/// progress line carry, its protocol, and its edit of the base config.
struct Variant {
  std::string label;
  Protocol protocol;
  ConfigEdit edit;
};

struct Axis {
  std::string title;
  std::string traces;  ///< default --traces of this axis
  std::vector<Variant> variants;
  std::vector<std::string> columns;  ///< table header after "Trace"
  std::size_t left_columns;          ///< columns [0, n) align left
  /// One trace's rows, without the Trace column, from its outcomes in
  /// variant order.
  std::function<std::vector<Row>(Outcomes)> rows;
  std::string note;  ///< printed under the table
};

/// 100 · part / whole to one decimal, or "-" when whole is not positive.
std::string pct(double part, double whole) {
  return whole > 0.0 ? util::fmt_fixed(100.0 * part / whole, 1) : "-";
}

/// The same labelled edit under SRM, then CESRM.
void add_pair(std::vector<Variant>& variants, const std::string& label,
              const ConfigEdit& edit) {
  variants.push_back({label, Protocol::kSrm, edit});
  variants.push_back({label, Protocol::kCesrm, edit});
}

/// Latencies, their ratio and the expedited success of a paired run.
Row srm_vs_cesrm(const ExperimentResult& srm, const ExperimentResult& cesrm) {
  const double srm_latency = srm.mean_normalized_recovery_time();
  const double cesrm_latency = cesrm.mean_normalized_recovery_time();
  return {util::fmt_fixed(srm_latency, 3), util::fmt_fixed(cesrm_latency, 3),
          pct(cesrm_latency, srm_latency),
          util::fmt_fixed(harness::figure5(srm, cesrm).pct_successful_expedited,
                          1)};
}

/// A: the §3.2 pair-selection policy (most-recent vs most-frequent loss;
/// the paper finds most-recent wins because loss location correlates most
/// with the latest loss) and the cache capacity (most-recent needs one
/// entry). SRM never reads these knobs, so one SRM run is the reference.
Axis policy_axis() {
  std::vector<Variant> variants{{"", Protocol::kSrm, nullptr}};
  const struct {
    const char* label;
    ExpeditionPolicy policy;
    std::size_t capacity;
  } settings[] = {
      {"most-recent/cap1", ExpeditionPolicy::kMostRecent, 1},
      {"most-recent/cap16", ExpeditionPolicy::kMostRecent, 16},
      {"most-frequent/cap4", ExpeditionPolicy::kMostFrequent, 4},
      {"most-frequent/cap16", ExpeditionPolicy::kMostFrequent, 16},
      {"most-frequent/cap64", ExpeditionPolicy::kMostFrequent, 64},
  };
  for (const auto& s : settings)
    variants.push_back({s.label, Protocol::kCesrm,
                        [s](ExperimentConfig& c) {
                          c.cesrm.policy = s.policy;
                          c.cesrm.cache.capacity = s.capacity;
                        }});
  return {
      .title = "Ablation A — expedition policy (§3.2) and cache capacity",
      .traces = "1,4,7,11,13",
      .variants = std::move(variants),
      .columns = {"Variant", "rec time (RTT)", "exp success %", "exp share %",
                  "vs SRM %"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            const ExperimentResult& srm = outs[0].result;
            const double srm_latency = srm.mean_normalized_recovery_time();
            std::vector<Row> rows;
            for (const JobOutcome& out : outs.subspan(1)) {
              const ExperimentResult& cesrm = out.result;
              const double latency = cesrm.mean_normalized_recovery_time();
              std::uint64_t expedited = 0, recovered = 0;
              for (const auto& m : cesrm.members)
                for (const auto& r : m.stats.recoveries) {
                  recovered += r.recovered ? 1 : 0;
                  expedited += (r.recovered && r.expedited) ? 1 : 0;
                }
              rows.push_back(
                  {out.label, util::fmt_fixed(latency, 3),
                   util::fmt_fixed(
                       harness::figure5(srm, cesrm).pct_successful_expedited,
                       1),
                   pct(static_cast<double>(expedited),
                       static_cast<double>(recovered)),
                   pct(latency, srm_latency)});
            }
            return rows;
          },
      .note = "(paper §4.3: the most-recent-loss policy outperforms "
              "most-frequent because loss location\ncorrelates most with "
              "the most recent loss; most-recent needs a cache of just one "
              "entry)\n",
  };
}

/// B: the headline runs assume lossless recovery traffic; with recovery
/// packets also dropped (per estimated link loss rates) latencies grow
/// slightly and CESRM keeps its lead. Lossy recovery changes both
/// protocols, so each mode has its own SRM run.
Axis lossy_axis() {
  std::vector<Variant> variants;
  for (const bool lossy : {false, true})
    add_pair(variants, lossy ? "lossy" : "lossless",
             [lossy](ExperimentConfig& c) {
               c.lossy_recovery = lossy;
               c.drain = sim::SimTime::seconds(60);
             });
  return {
      .title = "Ablation B — lossy recovery traffic (§4.3)",
      .traces = "1,4,9,13",
      .variants = std::move(variants),
      .columns = {"Mode", "SRM (RTT)", "CESRM (RTT)", "CESRM/SRM %",
                  "exp success %", "unrecovered"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            std::vector<Row> rows;
            for (std::size_t i = 0; i < outs.size(); i += 2) {
              const ExperimentResult& srm = outs[i].result;
              const ExperimentResult& cesrm = outs[i + 1].result;
              Row row{outs[i].label};
              for (auto& cell : srm_vs_cesrm(srm, cesrm))
                row.push_back(std::move(cell));
              row.push_back(util::fmt_count(srm.total_unrecovered() +
                                            cesrm.total_unrecovered()));
              rows.push_back(std::move(row));
            }
            return rows;
          },
      .note = "(paper: with lossy recovery, latencies are slightly larger "
              "and CESRM exhibits similar\nimprovements over SRM)\n",
  };
}

/// C: the paper ran every simulation with 10, 20 and 30 ms links and
/// found the RTT-normalized results "very similar".
Axis delay_axis() {
  static constexpr int kDelaysMs[] = {10, 20, 30};
  std::vector<Variant> variants;
  for (const int ms : kDelaysMs)
    add_pair(variants, std::to_string(ms) + "ms", [ms](ExperimentConfig& c) {
      c.network.link_delay = sim::SimTime::millis(ms);
    });
  return {
      .title = "Ablation C — link delay sweep (§4.3)",
      .traces = "1,5,13",
      .variants = std::move(variants),
      .columns = {"delay (ms)", "SRM (RTT)", "CESRM (RTT)", "CESRM/SRM %",
                  "exp success %"},
      .left_columns = 1,
      .rows =
          [](Outcomes outs) {
            std::vector<Row> rows;
            for (std::size_t d = 0; d < std::size(kDelaysMs); ++d) {
              Row row{std::to_string(kDelaysMs[d])};
              for (auto& cell :
                   srm_vs_cesrm(outs[2 * d].result, outs[2 * d + 1].result))
                row.push_back(std::move(cell));
              rows.push_back(std::move(row));
            }
            return rows;
          },
      .note = "(paper: results with the three delays were very similar; "
              "normalized metrics are\nlargely delay-invariant)\n",
  };
}

/// D: the paper compares against SRM with Floyd et al.'s fixed "typical
/// settings"; their adaptive timer algorithm trades duplicate
/// suppression for latency but cannot approach the expedited scheme —
/// the suppression floor is structural, and caching sidesteps it.
Axis adaptive_axis() {
  return {
      .title = "Ablation D — adaptive SRM timers (Floyd et al. §V) vs CESRM",
      .traces = "1,4,7,13",
      .variants = {{"fixed", Protocol::kSrm, nullptr},
                   {"adaptive", Protocol::kSrm,
                    [](ExperimentConfig& c) {
                      c.cesrm.srm.adaptive_timers = true;
                    }},
                   {"", Protocol::kCesrm, nullptr}},
      .columns = {"protocol", "rec time (RTT)", "requests", "replies",
                  "vs fixed SRM %"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            static constexpr const char* kNames[] = {
                "SRM (fixed)", "SRM (adaptive)", "CESRM"};
            const double base = outs[0].result.mean_normalized_recovery_time();
            std::vector<Row> rows;
            for (std::size_t i = 0; i < outs.size(); ++i) {
              const ExperimentResult& r = outs[i].result;
              const double latency = r.mean_normalized_recovery_time();
              rows.push_back(
                  {kNames[i], util::fmt_fixed(latency, 3),
                   util::fmt_count(r.total_requests_sent() +
                                   r.total_exp_requests_sent()),
                   util::fmt_count(r.total_replies_sent() +
                                   r.total_exp_replies_sent()),
                   pct(latency, base)});
            }
            return rows;
          },
      .note = "(on these loss-heavy traces the adaptive controller "
              "suppresses duplicate replies at the\ncost of much higher "
              "latency — it slides along SRM's latency/duplicates trade-off "
              "curve,\nwhile CESRM's caching steps off that curve "
              "entirely)\n",
  };
}

/// §3.3: router-assisted CESRM unicasts each expedited reply to the cached
/// turning-point router, which subcasts it downstream, so the
/// retransmission reaches only the subtree that lost it. Router assist is
/// a CESRM-only knob, so one SRM run is the reference.
Axis router_axis() {
  std::vector<Variant> variants{{"", Protocol::kSrm, nullptr}};
  for (const bool assist : {false, true})
    variants.push_back({assist ? "router-assist" : "plain", Protocol::kCesrm,
                        [assist](ExperimentConfig& c) {
                          c.cesrm.router_assist = assist;
                        }});
  return {
      .title = "Router-assisted CESRM — localized expedited replies",
      .traces = "1,3,7,13",
      .variants = std::move(variants),
      .columns = {"Variant", "rec time (RTT)", "EREPL crossings/reply",
                  "retrans % of SRM", "exp success %"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            const ExperimentResult& srm = outs[0].result;
            std::vector<Row> rows;
            for (const JobOutcome& out : outs.subspan(1)) {
              const ExperimentResult& cesrm = out.result;
              const auto f5 = harness::figure5(srm, cesrm);
              const std::uint64_t erepl_crossings =
                  cesrm.crossings.total_of(net::PacketType::kExpReply);
              const std::uint64_t erepl = cesrm.total_exp_replies_sent();
              rows.push_back(
                  {out.label,
                   util::fmt_fixed(cesrm.mean_normalized_recovery_time(), 3),
                   erepl ? util::fmt_fixed(
                               static_cast<double>(erepl_crossings) /
                                   static_cast<double>(erepl),
                               2)
                         : "-",
                   util::fmt_fixed(f5.retransmission_pct_of_srm, 1),
                   util::fmt_fixed(f5.pct_successful_expedited, 1)});
            }
            return rows;
          },
      .note = "(plain CESRM multicasts every expedited reply over all tree "
              "links; the §3.3 variant pays\nonly the unicast leg to the "
              "turning point plus its subtree — lighter-weight than "
              "LMS\nbecause routers keep no replier state)\n",
  };
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(
      "Ablations: expedition policy and cache capacity, lossy recovery, "
      "link delay, adaptive SRM timers, and router assist (without "
      "--traces, each axis runs its own trace list)");
  bench::add_common_flags(flags, "");
  if (!flags.parse(argc, argv)) return 1;
  bench::BenchOptions opts;
  if (!bench::read_common_flags(flags, &opts)) return 1;
  if (opts.packets_cap == 0) opts.packets_cap = 20000;  // ablation default

  const Axis axes[] = {policy_axis(), lossy_axis(), delay_axis(),
                       adaptive_axis(), router_axis()};

  // Every axis's jobs, trace-major and variant-minor, in one batch.
  std::vector<bench::BenchOptions> axis_opts;
  std::vector<harness::ExperimentJob> jobs;
  for (const Axis& axis : axes) {
    bench::BenchOptions o = opts;
    if (o.trace_ids.empty()) bench::parse_trace_ids(axis.traces, &o.trace_ids);
    for (const auto& spec : bench::selected_specs(o)) {
      for (const Variant& v : axis.variants) {
        harness::ExperimentJob job;
        job.spec = spec;
        job.protocol = v.protocol;
        job.config = opts.base;
        if (v.edit) v.edit(job.config);
        job.label = v.label;
        jobs.push_back(std::move(job));
      }
    }
    axis_opts.push_back(std::move(o));
  }
  harness::JsonResultSink sink;
  const auto outcomes = bench::run_jobs(std::move(jobs), opts, &sink);

  Outcomes rest(outcomes);
  for (std::size_t a = 0; a < std::size(axes); ++a) {
    const Axis& axis = axes[a];
    bench::print_header(axis.title, axis_opts[a]);
    util::TextTable table;
    Row header{"Trace"};
    header.insert(header.end(), axis.columns.begin(), axis.columns.end());
    table.set_header(std::move(header));
    for (std::size_t c = 0; c < axis.left_columns; ++c)
      table.set_align(c, util::Align::kLeft);
    for (const auto& spec : bench::selected_specs(axis_opts[a])) {
      const auto rows = axis.rows(rest.first(axis.variants.size()));
      rest = rest.subspan(axis.variants.size());
      for (std::size_t r = 0; r < rows.size(); ++r) {
        Row row{r == 0 ? spec.name : ""};
        row.insert(row.end(), rows[r].begin(), rows[r].end());
        table.add_row(std::move(row));
      }
      table.add_rule();
    }
    table.print();
    std::cout << '\n' << axis.note;
  }
  bench::write_json(opts, sink);
  return bench::slo_exit(opts);
}
