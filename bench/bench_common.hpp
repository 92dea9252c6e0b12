// bench_common.hpp — shared machinery for the trace-driven bench binaries.
//
// Every bench reenacts Table-1 traces: generate (§4.1 substitute), infer
// drop links (§4.2), run SRM, CESRM or LMS (§4.3), and print the series
// the paper's tables and figures report. bench_paper prints Table 1 …
// Figure 5, bench_ablation every one-setting comparison (ablations,
// router assist, churn, LMS and the cache-policy laboratory) and
// bench_faults the fault scenarios. Each invocation owns one parallel
// ExperimentRunner: every trace is generated once into its cache, however
// many batches replay it, and the (trace × protocol × variant) jobs fan
// out over --jobs worker threads (default: hardware concurrency). Results
// are deterministic and byte-identical for any --jobs value, including 1.
// The common flags let a user trim the sweep (--traces=1,4,7), cap
// packets per trace (--packets-cap=20000), change the link delay (§4.3
// ran 10/20/30 ms), or dump machine-readable results (--json=FILE).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/reports.hpp"
#include "harness/runner.hpp"
#include "infer/link_trace.hpp"
#include "obs/export.hpp"
#include "obs/sketch.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace cesrm::bench {

/// Everything one trace-driven SRM-vs-CESRM comparison produces. The
/// prepared trace (generation + inference) is shared, not copied.
struct TraceRun {
  trace::TraceSpec spec;
  std::shared_ptr<const harness::PreparedTrace> trace;
  harness::ExperimentResult srm;
  harness::ExperimentResult cesrm;

  const trace::GeneratedTrace& gen() const { return trace->gen; }
  const trace::LossTrace& loss() const { return trace->loss(); }
};

/// Accumulates observability artifacts across every run_jobs() call of a
/// bench invocation (bench_faults sweeps in two batches). Captures are
/// appended and metrics merged strictly in job order; the output files are
/// rewritten after each batch, so the last batch leaves them complete.
struct ObsAccumulator {
  std::string trace_path;    // --trace-out=FILE ("" = off)
  std::string metrics_path;  // --metrics-out=FILE ("" = off)
  std::string stream_path;   // --stream-out=FILE ("" = off)
  struct Capture {
    std::string name;  ///< "trace/protocol[/label]" process label
    std::shared_ptr<const std::vector<obs::TraceEvent>> events;
  };
  std::vector<Capture> captures;
  obs::MetricsSnapshot metrics;
  /// Cross-job streaming telemetry, merged strictly in job order — like
  /// every other artifact, byte-identical for any --jobs value.
  obs::StreamingSketch sketch;
};

/// One parsed --slo assertion, e.g. "recovery_p99<6.5".
struct SloSpec {
  enum class Cmp { kLt, kLe, kGt, kGe };
  std::string metric;  ///< recovery_{p50,p90,p99,mean,max} | unrecovered
  Cmp cmp = Cmp::kLt;
  double limit = 0;
  std::string text;  ///< the original spelling, echoed in the verdict line
};

/// Accumulates the observations the --slo assertions are checked against:
/// per-recovery latencies normalized by the recovering member's RTT to the
/// source (the paper's unit in Figures 1-2) and the unrecovered count.
struct SloGate {
  std::vector<SloSpec> specs;
  util::Sample normalized_latency;
  std::uint64_t unrecovered = 0;

  void accumulate(std::span<const harness::MemberResult> members);
  /// Value of one metric name; false when the name is unknown.
  bool value_of(const std::string& metric, double* out) const;
};

/// Parses a comma-separated --slo value into specs. Returns false (with a
/// friendly stderr message) on an unknown metric or malformed assertion.
bool parse_slo(const std::string& text, std::vector<SloSpec>* out);

/// Common bench options parsed from the command line.
struct BenchOptions {
  std::vector<int> trace_ids;      // which Table-1 traces to run
  net::SeqNo packets_cap = 0;      // 0 = full trace
  int link_delay_ms = 20;          // >= 1
  std::uint64_t seed = 1;
  unsigned jobs = 0;               // worker threads; 0 = hardware
  std::string json_path;           // --json=FILE ("" = no JSON output)
  harness::ExperimentConfig base;  // assembled from the flags
  /// Non-null when --trace-out/--metrics-out/--stream-out asked for
  /// artifacts; shared so run_jobs can accumulate through the const
  /// BenchOptions& it takes.
  std::shared_ptr<ObsAccumulator> obs;
  /// Non-null when --slo asserted service levels; accumulated by run_jobs
  /// alongside the artifacts and settled by slo_exit().
  std::shared_ptr<SloGate> slo;
  /// The invocation's one runner (--jobs workers, per-job progress on
  /// stderr so stdout is byte-identical for any jobs count). Its trace
  /// cache serves prepare() and every run_jobs() batch.
  std::shared_ptr<harness::ExperimentRunner> runner;
};

/// Evaluates the gate when --slo was given: prints one deterministic
/// "SLO <assertion>: PASS|FAIL (<observed>)" line per assertion to stdout
/// and returns 0 (all pass) or 3 (any fail). No-op returning 0 without
/// --slo, so default bench output stays byte-identical. Benches end their
/// main with `return slo_exit(opts);`.
int slo_exit(const BenchOptions& opts);

/// Registers the common flags on `flags`.
void add_common_flags(util::CliFlags& flags, const std::string& default_traces);

/// Builds BenchOptions, its runner included, from parsed flags; returns
/// false on bad input. An empty --traces leaves trace_ids empty for the
/// bench to fill.
bool read_common_flags(const util::CliFlags& flags, BenchOptions* out);

/// Appends the Table-1 ids of a --traces value ("all" or "1,4,7") to
/// `out`; returns false (with a stderr message) on a bad id.
bool parse_trace_ids(const std::string& text, std::vector<int>* out);

/// The capped Table-1 specs selected by opts.trace_ids, in order.
std::vector<trace::TraceSpec> selected_specs(const BenchOptions& opts);

/// Runs an arbitrary job list on opts.runner; outcomes come back in job
/// order. Every outcome is also added to `sink` (if non-null) with its
/// wall time and label.
std::vector<harness::JobOutcome> run_jobs(
    std::vector<harness::ExperimentJob> jobs, const BenchOptions& opts,
    harness::JsonResultSink* sink = nullptr);

/// The standard sweep: SRM and CESRM over every selected trace, in
/// parallel, sharing one generation + inference per trace. Results are in
/// trace order.
std::vector<TraceRun> run_traces(const BenchOptions& opts,
                                 harness::JsonResultSink* sink = nullptr);

/// Prints the standard bench header (paper reference, run parameters).
void print_header(const std::string& what, const BenchOptions& opts);

/// Writes the sink to opts.json_path when set (stderr note on success,
/// error on failure).
void write_json(const BenchOptions& opts, const harness::JsonResultSink& sink);

/// (Re)writes the accumulated observability artifacts: the event capture
/// to acc.trace_path (Chrome trace_event JSON, or JSONL when the path
/// ends in ".jsonl") and the merged metrics to acc.metrics_path. Called by
/// run_jobs after every batch; also usable directly.
void write_obs_artifacts(const ObsAccumulator& acc);

}  // namespace cesrm::bench
