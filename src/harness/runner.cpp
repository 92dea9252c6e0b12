#include "harness/runner.hpp"

#include <chrono>
#include <exception>
#include <sstream>
#include <thread>

#include "infer/link_estimator.hpp"
#include "util/check.hpp"

namespace cesrm::harness {

namespace {

unsigned resolve_workers(unsigned jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Canonical cache key: every field that affects generation output.
std::string spec_key(const trace::TraceSpec& spec) {
  std::ostringstream key;
  key << spec.name << '/' << spec.id << '/' << spec.receivers << '/'
      << spec.depth << '/' << spec.period_ms << '/' << spec.packets << '/'
      << spec.losses << '/' << spec.seed;
  return key.str();
}

std::shared_ptr<const PreparedTrace> build_prepared(
    const trace::TraceSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  auto prepared = std::make_shared<PreparedTrace>();
  prepared->spec = spec;
  prepared->gen = trace::generate_trace(spec);
  prepared->estimated_rates =
      infer::estimate_links_yajnik(*prepared->gen.loss).loss_rate;
  prepared->links = std::make_shared<const infer::LinkTraceRepresentation>(
      *prepared->gen.loss, prepared->estimated_rates);
  prepared->prepare_seconds = seconds_since(t0);
  return prepared;
}

}  // namespace

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_workers(jobs), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

// ------------------------------------------------------------ TraceCache ----

std::shared_ptr<const PreparedTrace> TraceCache::get(
    const trace::TraceSpec& spec) {
  const std::string key = spec_key(spec);
  std::promise<std::shared_ptr<const PreparedTrace>> promise;
  Entry entry;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = promise.get_future().share();
      entries_.emplace(key, entry);
      builder = true;
    } else {
      entry = it->second;
    }
  }
  if (!builder) return entry.get();  // waits for the builder if needed
  try {
    auto prepared = build_prepared(spec);
    promise.set_value(prepared);
    return prepared;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::size_t TraceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

obs::MetricsSnapshot merged_metrics(const std::vector<JobOutcome>& outcomes) {
  obs::MetricsSnapshot merged;
  for (const JobOutcome& out : outcomes) merged.merge(out.result.metrics);
  return merged;
}

// ------------------------------------------------------ ExperimentRunner ----

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options)) {}

unsigned ExperimentRunner::worker_count() const {
  return resolve_workers(options_.jobs);
}

std::vector<JobOutcome> ExperimentRunner::run(
    std::vector<ExperimentJob> jobs) {
  std::vector<JobOutcome> outcomes(jobs.size());
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;

  parallel_for(jobs.size(), options_.jobs, [&](std::size_t i) {
    const ExperimentJob& job = jobs[i];
    JobOutcome& out = outcomes[i];
    out.index = i;
    out.protocol = job.protocol;
    out.label = job.label;

    const trace::LossTrace* loss = job.loss.get();
    const infer::LinkTraceRepresentation* links = job.links.get();
    if (loss == nullptr) {
      out.trace = cache_.get(job.spec);
      loss = out.trace->gen.loss.get();
      links = out.trace->links.get();
    }
    CESRM_CHECK_MSG(loss != nullptr && links != nullptr,
                    "job " << i << " names neither a spec nor a trace");

    ExperimentConfig cfg = job.config;
    cfg.protocol = job.protocol;

    const auto t0 = std::chrono::steady_clock::now();
    out.result = run_experiment(*loss, *links, cfg);
    out.wall_seconds = seconds_since(t0);

    const std::size_t finished = done.fetch_add(1) + 1;
    if (options_.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      options_.on_progress(out, finished, jobs.size());
    }
  });
  return outcomes;
}

std::vector<std::shared_ptr<const PreparedTrace>> ExperimentRunner::prepare(
    const std::vector<trace::TraceSpec>& specs) {
  std::vector<std::shared_ptr<const PreparedTrace>> prepared(specs.size());
  parallel_for(specs.size(), options_.jobs,
               [&](std::size_t i) { prepared[i] = cache_.get(specs[i]); });
  return prepared;
}

}  // namespace cesrm::harness
