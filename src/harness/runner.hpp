// runner.hpp — the parallel experiment runner (§4.3 sweeps at scale).
//
// Every bench reenacts Table-1 traces × {SRM, CESRM} × config variants;
// the sweep is embarrassingly parallel because each experiment owns its
// Simulator, Network, and Rng. ExperimentRunner executes a job list on a
// pool of worker threads while a TraceCache generates each trace and its
// §4.2 link trace representation exactly once, sharing the immutable
// result across all jobs that replay it.
//
// Determinism contract: a job's outcome depends only on the job itself
// (trace, protocol, config, seed) — never on worker count or completion
// order — so results are bit-identical for any jobs setting, including 1.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "infer/link_trace.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"

namespace cesrm::harness {

/// Runs fn(0) … fn(n-1) on up to `jobs` worker threads (0 = hardware
/// concurrency). Blocks until all calls return; the first exception thrown
/// by any call is rethrown after the pool drains. fn must not assume any
/// execution order.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

/// A trace prepared for experiments: generation (§4.1 substitute) and
/// link-trace inference (§4.2) done once; immutable thereafter and safe to
/// share across concurrently running experiments.
struct PreparedTrace {
  trace::TraceSpec spec;
  trace::GeneratedTrace gen;
  /// Per-link Yajnik loss-rate estimates the representation was built from.
  std::vector<double> estimated_rates;
  std::shared_ptr<const infer::LinkTraceRepresentation> links;
  /// Wall-clock cost of generation + inference, seconds.
  double prepare_seconds = 0.0;

  const trace::LossTrace& loss() const { return *gen.loss; }
};

/// Thread-safe build-once cache of PreparedTrace, keyed by the full
/// TraceSpec identity. The first requester of a spec builds it; concurrent
/// requesters block until the build finishes and then share the instance.
class TraceCache {
 public:
  std::shared_ptr<const PreparedTrace> get(const trace::TraceSpec& spec);

  /// Number of distinct specs built so far.
  std::size_t size() const;

 private:
  using Entry = std::shared_future<std::shared_ptr<const PreparedTrace>>;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// One experiment to run: a trace × a protocol × config overrides. The
/// trace is either named by `spec` (generated on demand through the
/// runner's TraceCache) or supplied pre-built via `loss` + `links` (e.g.
/// loaded from a trace file by the CLI).
struct ExperimentJob {
  trace::TraceSpec spec;
  std::shared_ptr<const trace::LossTrace> loss;  ///< pre-built alternative
  std::shared_ptr<const infer::LinkTraceRepresentation> links;
  Protocol protocol = Protocol::kCesrm;
  /// Base config; its protocol field is overridden by `protocol` above.
  ExperimentConfig config;
  /// Free-form tag carried through to JobOutcome (bench variant names).
  std::string label;
};

/// A finished job: the experiment result plus provenance and timing.
struct JobOutcome {
  std::size_t index = 0;  ///< position in the submitted job list
  Protocol protocol = Protocol::kCesrm;
  std::string label;
  ExperimentResult result;
  /// The cached trace the job ran on (null when the job supplied its own).
  std::shared_ptr<const PreparedTrace> trace;
  double wall_seconds = 0.0;  ///< experiment only, excluding trace prep
};

/// Folds every outcome's metrics snapshot into one, strictly in job order
/// (outcomes are already in job order) — the reason a sweep's merged
/// metrics are byte-identical for any --jobs value.
obs::MetricsSnapshot merged_metrics(const std::vector<JobOutcome>& outcomes);

struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency (at least 1).
  unsigned jobs = 0;
  /// Invoked after each job completes — serialized, in completion order
  /// (which is scheduling-dependent; results themselves are not).
  /// `done` counts finished jobs including this one.
  std::function<void(const JobOutcome& outcome, std::size_t done,
                     std::size_t total)>
      on_progress;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {});

  /// Runs every job, returning outcomes in job order (outcome[i] is
  /// jobs[i]). Blocks until the sweep finishes.
  std::vector<JobOutcome> run(std::vector<ExperimentJob> jobs);

  /// Generates (and caches) the traces for `specs` in parallel without
  /// running any protocol. Returns prepared traces in spec order.
  std::vector<std::shared_ptr<const PreparedTrace>> prepare(
      const std::vector<trace::TraceSpec>& specs);

  TraceCache& cache() { return cache_; }
  /// The worker count this runner resolves to (options.jobs or hardware).
  unsigned worker_count() const;

 private:
  RunnerOptions options_;
  TraceCache cache_;
};

}  // namespace cesrm::harness
