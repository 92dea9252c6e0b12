// bench_cache_policies — the cache-policy laboratory's quantitative
// deliverable: how much of CESRM's expedited-recovery win depends on the
// §3.1 replacement policy? Per trace, one SRM reference run plus one
// CESRM run per cache policy (recency = the paper's scheme, confidence,
// sharded, and the oracle upper bound fed the true injected loss links).
// For each run: the cache hit rate at loss detection, the expedited
// success rate and share of recoveries, the normalized recovery latency,
// and control overhead relative to SRM.
// The closing summary compares the recency row against the oracle —
// the gap is the headroom any cleverer cache could possibly buy.
//
// With --cache-policy left at its default, the recency rows replay the
// exact legacy cache behavior; --out=FILE writes a deterministic JSON
// baseline (schema "cesrm-cache-policies-bench/1") the CI cache job
// compares against BENCH_cache_policies.json.

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "util/json.hpp"

namespace {

struct PolicyRow {
  double hit_pct = 0.0;
  double exp_success_pct = 0.0;
  double latency = 0.0;
  double vs_srm_pct = 0.0;   // 100 · latency / srm_latency (0 when n/a)
  double control_pct = 0.0;  // total control traffic, % of SRM
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cesrm;
  using ::cesrm::cesrm::CachePolicyKind;

  util::CliFlags flags(
      "Cache-policy laboratory: per-policy expedited hit rate, recovery "
      "latency and overhead, including the oracle upper bound");
  bench::add_common_flags(flags, "all");
  flags.add_string("out", "",
                   "write a deterministic JSON baseline here (CI cache job)");
  if (!flags.parse(argc, argv)) return 1;
  bench::BenchOptions opts;
  if (!bench::read_common_flags(flags, &opts)) return 1;
  if (opts.packets_cap == 0) opts.packets_cap = 20000;  // laboratory default
  bench::print_header(
      "Cache-policy laboratory — replacement policies for the §3.1 cache",
      opts);

  constexpr auto kPolicies = ::cesrm::cesrm::kAllCachePolicyKinds;
  constexpr std::size_t kNumPolicies = kPolicies.size();

  util::TextTable table;
  table.set_header({"Trace", "Policy", "cache hit %", "exp success %",
                    "exp share %", "rec time (RTT)", "vs SRM %",
                    "ctrl % of SRM"});
  table.set_align(0, util::Align::kLeft);
  table.set_align(1, util::Align::kLeft);

  // One SRM reference job plus one CESRM job per cache policy, per trace;
  // SRM never reads the cache knobs, so one reference serves all rows.
  const auto specs = bench::selected_specs(opts);
  std::vector<harness::ExperimentJob> jobs;
  for (const auto& spec : specs) {
    harness::ExperimentJob srm_job;
    srm_job.spec = spec;
    srm_job.protocol = Protocol::kSrm;
    srm_job.config = opts.base;
    jobs.push_back(std::move(srm_job));
    for (const CachePolicyKind kind : kPolicies) {
      harness::ExperimentJob job;
      job.spec = spec;
      job.protocol = Protocol::kCesrm;
      job.config = opts.base;
      job.config.cesrm.cache.policy = kind;
      job.label = ::cesrm::cesrm::cache_policy_name(kind);
      jobs.push_back(std::move(job));
    }
  }

  harness::JsonResultSink sink;
  const auto outcomes = bench::run_jobs(std::move(jobs), opts, &sink);

  // Per-policy cross-trace accumulators for the closing summary.
  struct Accum {
    double vs_srm_sum = 0.0;
    double hit_sum = 0.0;
    std::size_t n = 0;
  };
  std::vector<Accum> accum(kNumPolicies);
  // (trace, policy) rows for the JSON baseline, in run order.
  std::vector<std::pair<std::string, PolicyRow>> baseline_rows;

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const auto& srm = outcomes[i * (kNumPolicies + 1)].result;
    const double srm_latency = srm.mean_normalized_recovery_time();
    bool first = true;
    for (std::size_t j = 0; j < kNumPolicies; ++j) {
      const auto& cesrm_res = outcomes[i * (kNumPolicies + 1) + 1 + j].result;

      PolicyRow row;
      row.latency = cesrm_res.mean_normalized_recovery_time();
      const auto f5 = harness::figure5(srm, cesrm_res);
      row.exp_success_pct = f5.pct_successful_expedited;
      row.control_pct = f5.total_control_pct_of_srm();
      if (srm_latency > 0.0)
        row.vs_srm_pct = 100.0 * row.latency / srm_latency;

      std::uint64_t hits = 0, misses = 0, expedited = 0, recovered = 0;
      for (const auto& m : cesrm_res.members) {
        hits += m.stats.cache_hits;
        misses += m.stats.cache_misses;
        for (const auto& r : m.stats.recoveries) {
          recovered += r.recovered ? 1 : 0;
          expedited += (r.recovered && r.expedited) ? 1 : 0;
        }
      }
      if (hits + misses > 0)
        row.hit_pct = 100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses);

      table.add_row(
          {first ? spec.name : "", ::cesrm::cesrm::cache_policy_name(kPolicies[j]),
           util::fmt_fixed(row.hit_pct, 1),
           util::fmt_fixed(row.exp_success_pct, 1),
           recovered ? util::fmt_fixed(100.0 * static_cast<double>(expedited) /
                                           static_cast<double>(recovered),
                                       1)
                     : "-",
           util::fmt_fixed(row.latency, 3),
           srm_latency > 0.0 ? util::fmt_fixed(row.vs_srm_pct, 1) : "-",
           util::fmt_fixed(row.control_pct, 1)});
      first = false;

      accum[j].hit_sum += row.hit_pct;
      if (srm_latency > 0.0) {
        accum[j].vs_srm_sum += row.vs_srm_pct;
        ++accum[j].n;
      }
      baseline_rows.emplace_back(
          std::string(spec.name) + "." + ::cesrm::cesrm::cache_policy_name(kPolicies[j]),
          row);
    }
    table.add_rule();
  }
  table.print();

  // The laboratory's answer: recency vs the oracle upper bound.
  std::cout << "\nCross-trace means (latency vs SRM, cache hit rate):\n";
  for (std::size_t j = 0; j < kNumPolicies; ++j) {
    const double vs =
        accum[j].n ? accum[j].vs_srm_sum / static_cast<double>(accum[j].n)
                   : 0.0;
    const double hit =
        specs.empty() ? 0.0
                      : accum[j].hit_sum / static_cast<double>(specs.size());
    std::cout << "  " << ::cesrm::cesrm::cache_policy_name(kPolicies[j]) << ": "
              << util::fmt_fixed(vs, 1) << "% of SRM latency, "
              << util::fmt_fixed(hit, 1) << "% cache hits\n";
  }
  const std::size_t recency_idx = 0, oracle_idx = kNumPolicies - 1;
  if (accum[recency_idx].n && accum[oracle_idx].n) {
    const double recency_vs = accum[recency_idx].vs_srm_sum /
                              static_cast<double>(accum[recency_idx].n);
    const double oracle_vs = accum[oracle_idx].vs_srm_sum /
                             static_cast<double>(accum[oracle_idx].n);
    std::cout << "\n(policy headroom: the paper's recency cache reaches "
              << util::fmt_fixed(recency_vs, 1)
              << "% of SRM latency; an oracle fed the true loss links reaches "
              << util::fmt_fixed(oracle_vs, 1)
              << "% — the gap is all any smarter replacement policy could "
                 "recover)\n";
  }
  bench::write_json(opts, sink);

  const std::string out_path = flags.get_string("out");
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    os << "{\n  \"schema\": \"cesrm-cache-policies-bench/1\",\n";
    os << "  \"config\": {\"traces\": ";
    util::json_escape(os, flags.get_string("traces"));
    os << ", \"packets_cap\": " << opts.packets_cap
       << ", \"link_delay_ms\": " << opts.link_delay_ms
       << ", \"seed\": " << opts.seed << "},\n";
    os << "  \"metrics\": {\n";
    for (std::size_t i = 0; i < baseline_rows.size(); ++i) {
      const auto& [key, row] = baseline_rows[i];
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
      for (std::size_t k = 0; k < 4; ++k) {
        os << "    ";
        util::json_escape(os, key + "." + metrics[k].name);
        os << ": {\"value\": ";
        util::json_double(os, metrics[k].value);
        os << ", \"unit\": ";
        util::json_escape(os, metrics[k].unit);
        os << ", \"better\": ";
        util::json_escape(os, metrics[k].better);
        os << "}"
           << (i + 1 < baseline_rows.size() || k + 1 < 4 ? "," : "") << "\n";
      }
    }
    os << "  }\n}\n";
    std::cerr << "wrote " << out_path << "\n";
  }
  return bench::slo_exit(opts);
}
