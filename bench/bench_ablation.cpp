// bench_ablation — every one-setting comparison the paper makes around its
// headline runs, each against a reference on a few traces:
//
//   A  expedition policy (§3.2) and cache capacity;
//   B  lossy recovery traffic (§4.3);
//   C  link delay 10/20/30 ms (§4.3);
//   D  adaptive SRM timers (Floyd et al. §V) vs CESRM;
//   router-assisted CESRM (§3.3);
//   membership churn: crash-stop receivers mid-trace (§3.3);
//   LMS, healthy and under churn (§3.3/§5);
//   and the cache-policy laboratory: §3.1 replacement policies against
//   an oracle fed the true loss links.
//
// Each axis is data: a title, its default traces, its variants (a label,
// a protocol and a config edit, which may read the job's trace), a row
// function for its table and a note function over all its outcomes. One
// loop puts every axis's jobs into one runner batch, then hands each axis
// its outcomes in job order; the runner's trace cache generates each
// trace once for every axis. Without --traces each axis runs its own
// trace list; an explicit --traces applies to every axis. Traces are
// capped at 20 000 packets unless --packets-cap says otherwise. --out=FILE
// writes the cache axis's deterministic JSON baseline (schema
// "cesrm-cache-policies-bench/1"), which the CI cache job compares against
// BENCH_cache_policies.json.

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>

#include "bench_common.hpp"
#include "fault/fault_plan.hpp"
#include "lms/directory.hpp"
#include "util/json.hpp"

namespace {

using namespace cesrm;
using ::cesrm::cesrm::CachePolicyKind;
using ::cesrm::cesrm::ExpeditionPolicy;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::JobOutcome;
using Row = std::vector<std::string>;
using Outcomes = std::span<const JobOutcome>;
using ConfigEdit =
    std::function<void(ExperimentConfig&, const trace::LossTrace&)>;
using Note = std::function<std::string(Outcomes)>;

/// One run per trace: the label its JSON result, trace capture and
/// progress line carry, its protocol, and its edit of the base config
/// for the job's trace.
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
  /// Printed under the table, from the outcomes of every trace in job
  /// order.
  Note note;
};

/// A note that reads no outcome.
Note fixed_note(std::string text) {
  return [text = std::move(text)](Outcomes) { return text; };
}

/// 100 · part / whole to one decimal, or "-" when whole is not positive.
std::string pct(double part, double whole) {
  return whole > 0.0 ? util::fmt_fixed(100.0 * part / whole, 1) : "-";
}

/// The share of a run's recoveries that were expedited, in percent.
std::string exp_share(const ExperimentResult& result) {
  std::uint64_t expedited = 0, recovered = 0;
  for (const auto& m : result.members)
    for (const auto& r : m.stats.recoveries) {
      recovered += r.recovered ? 1 : 0;
      expedited += (r.recovered && r.expedited) ? 1 : 0;
    }
  return pct(static_cast<double>(expedited), static_cast<double>(recovered));
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
                        [s](ExperimentConfig& c, const trace::LossTrace&) {
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
              rows.push_back(
                  {out.label, util::fmt_fixed(latency, 3),
                   util::fmt_fixed(
                       harness::figure5(srm, cesrm).pct_successful_expedited,
                       1),
                   exp_share(cesrm), pct(latency, srm_latency)});
            }
            return rows;
          },
      .note = fixed_note(
          "(paper §4.3: the most-recent-loss policy outperforms "
          "most-frequent because loss location\ncorrelates most with the "
          "most recent loss; most-recent needs a cache of just one "
          "entry)\n"),
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
             [lossy](ExperimentConfig& c, const trace::LossTrace&) {
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
      .note = fixed_note(
          "(paper: with lossy recovery, latencies are slightly larger and "
          "CESRM exhibits similar\nimprovements over SRM)\n"),
  };
}

/// C: the paper ran every simulation with 10, 20 and 30 ms links and
/// found the RTT-normalized results "very similar".
Axis delay_axis() {
  static constexpr int kDelaysMs[] = {10, 20, 30};
  std::vector<Variant> variants;
  for (const int ms : kDelaysMs)
    add_pair(variants, std::to_string(ms) + "ms",
             [ms](ExperimentConfig& c, const trace::LossTrace&) {
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
      .note = fixed_note(
          "(paper: results with the three delays were very similar; "
          "normalized metrics are\nlargely delay-invariant)\n"),
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
                    [](ExperimentConfig& c, const trace::LossTrace&) {
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
      .note = fixed_note(
          "(on these loss-heavy traces the adaptive controller suppresses "
          "duplicate replies at the\ncost of much higher latency — it "
          "slides along SRM's latency/duplicates trade-off curve,\nwhile "
          "CESRM's caching steps off that curve entirely)\n"),
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
                        [assist](ExperimentConfig& c, const trace::LossTrace&) {
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
      .note = fixed_note(
          "(plain CESRM multicasts every expedited reply over all tree "
          "links; the §3.3 variant pays\nonly the unicast leg to the "
          "turning point plus its subtree — lighter-weight than LMS\n"
          "because routers keep no replier state)\n"),
  };
}

/// The replier-crash scenario on `loss`: the last 30% of the receivers
/// crash-stop once half the packets are out.
fault::FaultPlan churn_plan(const trace::LossTrace& loss) {
  fault::ScenarioContext ctx;
  ctx.receivers = static_cast<int>(loss.tree().receivers().size());
  ctx.data_start = harness::kWarmup;
  ctx.data_end = harness::kWarmup + loss.period() * loss.packet_count();
  return fault::replier_crash_plan(ctx);
}

/// Recoveries of the surviving members on one side of a crash.
struct PhaseStats {
  util::OnlineStats latency;  // normalized
  std::uint64_t expedited = 0;
  std::uint64_t recovered = 0;
};

/// The surviving members' recoveries in one run, split at `crash` by
/// detection time.
struct CrashSplit {
  PhaseStats before, after;
  /// Normalized latencies detected within LMS's repair window after the
  /// crash, while its routers still name the crashed replier.
  util::OnlineStats window;
  std::uint64_t unrecovered = 0;
};

CrashSplit split_at(const ExperimentResult& result, sim::SimTime crash) {
  CrashSplit out;
  for (const auto& member : result.members) {
    if (member.failed || member.is_source) continue;
    for (const auto& r : member.stats.recoveries) {
      if (!r.recovered) {
        ++out.unrecovered;
        continue;
      }
      const double latency = r.latency_seconds() / member.rtt_to_source;
      PhaseStats& phase = r.detect_time < crash ? out.before : out.after;
      ++phase.recovered;
      phase.expedited += r.expedited ? 1 : 0;
      phase.latency.add(latency);
      if (r.detect_time >= crash &&
          r.detect_time < crash + harness::kLmsRepairDelay)
        out.window.add(latency);
    }
  }
  return out;
}

/// §3.3 membership churn, which the paper argues without measuring: when
/// cached repliers crash, expedited recoveries through them fail, SRM's
/// parallel scheme still repairs the loss, and the caches re-seed with
/// live pairs. One CESRM run per trace under the replier-crash plan, with
/// the invariant oracle armed; the rows split the surviving members'
/// recoveries at the crash.
Axis churn_axis() {
  return {
      .title = "Membership churn (§3.3) — crash-stop receivers",
      .traces = "1,7,13",
      .variants = {{"churn", Protocol::kCesrm,
                    [](ExperimentConfig& c, const trace::LossTrace& loss) {
                      c.faults = churn_plan(loss);
                    }}},
      .columns = {"phase", "exp success %", "exp share %",
                  "CESRM latency (RTT)", "unrecovered"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            const ExperimentResult& result = outs[0].result;
            const CrashSplit split = split_at(
                result, churn_plan(outs[0].trace->loss()).crashes.front().at);
            const auto erqst =
                static_cast<double>(result.total_exp_requests_sent());
            const auto erepl =
                static_cast<double>(result.total_exp_replies_sent());
            const auto share = [](const PhaseStats& p) {
              return pct(static_cast<double>(p.expedited),
                         static_cast<double>(p.recovered));
            };
            const auto latency = [](const PhaseStats& p) {
              return p.latency.empty() ? "-"
                                       : util::fmt_fixed(p.latency.mean(), 3);
            };
            return std::vector<Row>{
                {"pre-crash",
                 util::fmt_fixed(erqst > 0 ? 100.0 * erepl / erqst : 0.0, 1),
                 share(split.before), latency(split.before),
                 util::fmt_count(split.unrecovered)},
                {"post-crash", "\"", share(split.after), latency(split.after),
                 ""}};
          },
      .note = fixed_note(
          "(§3.3: expedited recoveries through crashed repliers fail, SRM's "
          "parallel scheme still\nrepairs every loss — note zero "
          "unrecovered — and the caches re-seed from the fallback\n"
          "recoveries, so the expedited share climbs back after the "
          "crash)\n"),
  };
}

/// Rank (index into tree.receivers()) of the receiver LMS designates at
/// the most routers — the worst case for stale replier state, and the
/// analogous "most-used replier" case for CESRM's caches. The initial
/// designations depend only on the tree.
int busiest_replier_rank(const net::MulticastTree& tree) {
  sim::Simulator sim;
  const lms::LmsDirectory directory(sim, tree, harness::kLmsRepairDelay);
  std::map<net::NodeId, int> designations;
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(tree.size()); ++v) {
    if (tree.is_leaf(v) || tree.is_root(v)) continue;
    ++designations[directory.designated_replier(v)];
  }
  net::NodeId victim = tree.receivers().front();
  int best = -1;
  for (const auto& [node, count] : designations) {
    if (count > best) {
      best = count;
      victim = node;
    }
  }
  const auto& receivers = tree.receivers();
  return static_cast<int>(
      std::find(receivers.begin(), receivers.end(), victim) -
      receivers.begin());
}

/// When half of `loss`'s packets are out.
sim::SimTime lms_midpoint(const trace::LossTrace& loss) {
  return harness::kWarmup + loss.period() * (loss.packet_count() / 2);
}

/// §3.3/§5: under stable membership LMS's designated repliers and CESRM's
/// expedited recovery give comparable latency and localized
/// retransmissions, but CESRM keeps no router replier state; under churn
/// LMS requests black-hole at the stale entry until the router state
/// repairs, while CESRM degrades to SRM. Each protocol runs healthy and
/// with the busiest LMS replier crash-stopped at the midpoint, SRM being
/// the reference.
Axis lms_axis() {
  std::vector<Variant> variants;
  for (const Protocol protocol :
       {Protocol::kSrm, Protocol::kCesrm, Protocol::kLms})
    for (const bool churned : {false, true})
      variants.push_back(
          {churned ? "churned" : "healthy", protocol,
           [churned](ExperimentConfig& c, const trace::LossTrace& loss) {
             c.drain = sim::SimTime::seconds(60);
             if (churned)
               c.faults.crashes.push_back(
                   {.receiver_rank = busiest_replier_rank(loss.tree()),
                    .at = lms_midpoint(loss)});
           }});
  return {
      .title = "LMS baseline (§3.3/§5) — healthy and under churn",
      .traces = "1,7,13",
      .variants = std::move(variants),
      .columns = {"protocol", "latency (RTT)", "repair-window latency",
                  "window worst", "unrecovered",
                  "retrans crossings/recovery"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            const sim::SimTime midpoint = lms_midpoint(outs[0].trace->loss());
            std::vector<Row> rows;
            for (std::size_t i = 0; i < outs.size(); i += 2) {
              const ExperimentResult& healthy_run = outs[i].result;
              const CrashSplit healthy = split_at(healthy_run, midpoint);
              const CrashSplit churned = split_at(outs[i + 1].result, midpoint);
              util::OnlineStats healthy_all = healthy.before.latency;
              healthy_all.merge(healthy.after.latency);
              // Retransmission link crossings per recovery.
              const std::uint64_t recoveries =
                  healthy.before.recovered + healthy.after.recovered;
              const std::uint64_t retrans_crossings =
                  healthy_run.crossings.total_of(net::PacketType::kReply) +
                  healthy_run.crossings.total_of(net::PacketType::kExpReply);
              const double exposure =
                  recoveries ? static_cast<double>(retrans_crossings) /
                                   static_cast<double>(recoveries)
                             : 0.0;
              const bool window = !churned.window.empty();
              rows.push_back(
                  {protocol_name(outs[i].protocol),
                   util::fmt_fixed(healthy_all.mean(), 3),
                   window ? util::fmt_fixed(churned.window.mean(), 3) : "-",
                   window ? util::fmt_fixed(churned.window.max(), 1) : "-",
                   util::fmt_count(churned.unrecovered),
                   util::fmt_fixed(exposure, 1)});
            }
            return rows;
          },
      .note = fixed_note(
          "Reading: healthy LMS and CESRM both beat SRM's latency; LMS has "
          "the lowest exposure\n(perfectly localized subcasts) but after "
          "the designated replier crashes its requests\nblack-hole until "
          "the 10 s router-state repair — the post-crash latency spike — "
          "while\nCESRM degrades to SRM and re-seeds its caches (§3.3, §5: "
          "\"CESRM remains robust ...\nwhereas LMS does not\").\n"),
  };
}

constexpr auto kPolicies = ::cesrm::cesrm::kAllCachePolicyKinds;
/// The cache axis's runs per trace: SRM, then one CESRM run per policy.
constexpr std::size_t kCacheRuns = kPolicies.size() + 1;

/// One cache policy's CESRM run against its trace's SRM run.
struct PolicyRow {
  double hit_pct = 0.0;  // cache hits at loss detection
  double exp_success_pct = 0.0;
  double latency = 0.0;
  /// 100 · latency / SRM's; none when SRM recovered nothing.
  std::optional<double> vs_srm_pct;
  double control_pct = 0.0;  // total control traffic, % of SRM
};

PolicyRow policy_row(const ExperimentResult& srm,
                     const ExperimentResult& cesrm) {
  PolicyRow row;
  row.latency = cesrm.mean_normalized_recovery_time();
  const auto f5 = harness::figure5(srm, cesrm);
  row.exp_success_pct = f5.pct_successful_expedited;
  row.control_pct = f5.total_control_pct_of_srm();
  const double srm_latency = srm.mean_normalized_recovery_time();
  if (srm_latency > 0.0) row.vs_srm_pct = 100.0 * row.latency / srm_latency;
  std::uint64_t hits = 0, misses = 0;
  for (const auto& m : cesrm.members) {
    hits += m.stats.cache_hits;
    misses += m.stats.cache_misses;
  }
  if (hits + misses > 0)
    row.hit_pct = 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
  return row;
}

/// The cache-policy laboratory: how much of CESRM's expedited-recovery win
/// depends on the §3.1 replacement policy? Per trace, one SRM reference
/// run (SRM never reads the cache knobs) plus one CESRM run per policy:
/// recency (the paper's scheme), confidence, sharded, and the oracle
/// upper bound fed the true injected loss links. The note compares each
/// policy across traces; recency against the oracle is the headroom any
/// cleverer cache could possibly buy.
Axis cache_axis() {
  std::vector<Variant> variants{{"", Protocol::kSrm, nullptr}};
  for (const CachePolicyKind kind : kPolicies)
    variants.push_back({::cesrm::cesrm::cache_policy_name(kind),
                        Protocol::kCesrm,
                        [kind](ExperimentConfig& c, const trace::LossTrace&) {
                          c.cesrm.cache.policy = kind;
                        }});
  return {
      .title = "Cache-policy laboratory — replacement policies for the "
               "§3.1 cache",
      .traces = "all",
      .variants = std::move(variants),
      .columns = {"Policy", "cache hit %", "exp success %", "exp share %",
                  "rec time (RTT)", "vs SRM %", "ctrl % of SRM"},
      .left_columns = 2,
      .rows =
          [](Outcomes outs) {
            std::vector<Row> rows;
            for (const JobOutcome& out : outs.subspan(1)) {
              const PolicyRow row = policy_row(outs[0].result, out.result);
              rows.push_back(
                  {out.label, util::fmt_fixed(row.hit_pct, 1),
                   util::fmt_fixed(row.exp_success_pct, 1),
                   exp_share(out.result), util::fmt_fixed(row.latency, 3),
                   row.vs_srm_pct ? util::fmt_fixed(*row.vs_srm_pct, 1) : "-",
                   util::fmt_fixed(row.control_pct, 1)});
            }
            return rows;
          },
      .note =
          [](Outcomes outs) {
            const std::size_t traces = outs.size() / kCacheRuns;
            std::ostringstream os;
            os << "Cross-trace means (latency vs SRM, cache hit rate):\n";
            std::vector<std::optional<double>> vs_means;
            for (std::size_t j = 0; j < kPolicies.size(); ++j) {
              double vs_sum = 0.0, hit_sum = 0.0;
              std::size_t n = 0;
              for (std::size_t t = 0; t < traces; ++t) {
                const PolicyRow row =
                    policy_row(outs[t * kCacheRuns].result,
                               outs[t * kCacheRuns + 1 + j].result);
                hit_sum += row.hit_pct;
                if (row.vs_srm_pct) {
                  vs_sum += *row.vs_srm_pct;
                  ++n;
                }
              }
              vs_means.push_back(
                  n ? std::optional(vs_sum / static_cast<double>(n))
                    : std::nullopt);
              os << "  " << ::cesrm::cesrm::cache_policy_name(kPolicies[j])
                 << ": " << util::fmt_fixed(vs_means.back().value_or(0.0), 1)
                 << "% of SRM latency, "
                 << util::fmt_fixed(
                        traces ? hit_sum / static_cast<double>(traces) : 0.0,
                        1)
                 << "% cache hits\n";
            }
            // Recency is the first policy, the oracle the last.
            if (vs_means.front() && vs_means.back())
              os << "\n(policy headroom: the paper's recency cache reaches "
                 << util::fmt_fixed(*vs_means.front(), 1)
                 << "% of SRM latency; an oracle fed the true loss links "
                    "reaches "
                 << util::fmt_fixed(*vs_means.back(), 1)
                 << "% — the gap is all any smarter replacement policy "
                    "could recover)\n";
            return os.str();
          },
  };
}

/// Writes the cache axis's outcomes `outs` as the JSON baseline: four
/// metrics per (trace, policy), in run order. False when `path` cannot be
/// written.
bool write_cache_baseline(const std::string& path, const std::string& traces,
                          const bench::BenchOptions& opts, Outcomes outs) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  os << "{\n  \"schema\": \"cesrm-cache-policies-bench/1\",\n";
  os << "  \"config\": {\"traces\": ";
  util::json_escape(os, traces);
  os << ", \"packets_cap\": " << opts.packets_cap
     << ", \"link_delay_ms\": " << opts.link_delay_ms
     << ", \"seed\": " << opts.seed << "},\n";
  os << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (i % kCacheRuns == 0) continue;  // the trace's SRM reference
    const JobOutcome& srm = outs[i - i % kCacheRuns];
    const PolicyRow row = policy_row(srm.result, outs[i].result);
    const std::string key = srm.result.trace_name + "." + outs[i].label;
    const struct {
      const char* name;
      double value;
      const char* unit;
      const char* better;
    } metrics[] = {
        {"cache_hit_pct", row.hit_pct, "%", "higher"},
        {"exp_success_pct", row.exp_success_pct, "%", "higher"},
        {"latency_norm", row.latency, "rtt", "lower"},
        {"control_pct_of_srm", row.control_pct, "%", "lower"},
    };
    for (std::size_t k = 0; k < std::size(metrics); ++k) {
      os << "    ";
      util::json_escape(os, key + "." + metrics[k].name);
      os << ": {\"value\": ";
      util::json_double(os, metrics[k].value);
      os << ", \"unit\": ";
      util::json_escape(os, metrics[k].unit);
      os << ", \"better\": ";
      util::json_escape(os, metrics[k].better);
      os << "}"
         << (i + 1 < outs.size() || k + 1 < std::size(metrics) ? "," : "")
         << "\n";
    }
  }
  os << "  }\n}\n";
  std::cerr << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(
      "Ablations and comparisons: expedition policy and cache capacity, "
      "lossy recovery, link delay, adaptive SRM timers, router assist, "
      "membership churn, LMS and the cache-policy laboratory (without "
      "--traces, each axis runs its own trace list)");
  bench::add_common_flags(flags, "");
  flags.add_string("out", "",
                   "write the cache-policy axis's deterministic JSON "
                   "baseline here (CI cache job)");
  if (!flags.parse(argc, argv)) return 1;
  bench::BenchOptions opts;
  if (!bench::read_common_flags(flags, &opts)) return 1;
  if (opts.packets_cap == 0) opts.packets_cap = 20000;  // ablation default

  const Axis axes[] = {policy_axis(),   lossy_axis(),  delay_axis(),
                       adaptive_axis(), router_axis(), churn_axis(),
                       lms_axis(),      cache_axis()};

  // Every axis's jobs, trace-major and variant-minor, in one batch. The
  // edits read each axis's prepared traces, which the batch then replays
  // from the runner's cache.
  std::vector<bench::BenchOptions> axis_opts;
  std::vector<harness::ExperimentJob> jobs;
  for (const Axis& axis : axes) {
    bench::BenchOptions o = opts;
    if (o.trace_ids.empty()) bench::parse_trace_ids(axis.traces, &o.trace_ids);
    const auto specs = bench::selected_specs(o);
    const auto traces = opts.runner->prepare(specs);
    for (std::size_t t = 0; t < specs.size(); ++t) {
      for (const Variant& v : axis.variants) {
        harness::ExperimentJob job;
        job.spec = specs[t];
        job.protocol = v.protocol;
        job.config = opts.base;
        if (v.edit) v.edit(job.config, traces[t]->loss());
        job.label = v.label;
        jobs.push_back(std::move(job));
      }
    }
    axis_opts.push_back(std::move(o));
  }
  harness::JsonResultSink sink;
  const auto outcomes = bench::run_jobs(std::move(jobs), opts, &sink);

  Outcomes rest(outcomes), axis_outcomes;
  for (std::size_t a = 0; a < std::size(axes); ++a) {
    const Axis& axis = axes[a];
    const std::size_t runs = axis.variants.size();
    const auto specs = bench::selected_specs(axis_opts[a]);
    axis_outcomes = rest.first(specs.size() * runs);
    rest = rest.subspan(axis_outcomes.size());
    bench::print_header(axis.title, axis_opts[a]);
    util::TextTable table;
    Row header{"Trace"};
    header.insert(header.end(), axis.columns.begin(), axis.columns.end());
    table.set_header(std::move(header));
    for (std::size_t c = 0; c < axis.left_columns; ++c)
      table.set_align(c, util::Align::kLeft);
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const auto rows = axis.rows(axis_outcomes.subspan(t * runs, runs));
      for (std::size_t r = 0; r < rows.size(); ++r) {
        Row row{r == 0 ? specs[t].name : ""};
        row.insert(row.end(), rows[r].begin(), rows[r].end());
        table.add_row(std::move(row));
      }
      table.add_rule();
    }
    table.print();
    std::cout << '\n' << axis.note(axis_outcomes);
  }
  bench::write_json(opts, sink);

  // The cache axis runs last, so axis_outcomes are its outcomes.
  const std::string out_path = flags.get_string("out");
  if (!out_path.empty()) {
    std::string traces = flags.get_string("traces");
    if (traces.empty()) traces = axes[std::size(axes) - 1].traces;
    if (!write_cache_baseline(out_path, traces, opts, axis_outcomes)) return 1;
  }
  return bench::slo_exit(opts);
}
