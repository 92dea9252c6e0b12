// bench.hpp — shared plumbing of the perfbench program: run options, seed
// derivation, host clocks and counters, the span recorder of traced runs,
// and the metric set one invocation prints.
//
// A workload is a function from Options to a Report. Untraced runs (the
// end-to-end metrics) record no spans and keep every obs switch off;
// traced runs record spans around the benchmark's own calls into each
// layer and read the counters the program returns.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  /// Workload seed. It feeds the experiment seeds (agent timer streams)
  /// and the netio loss-shim seed; 0 keeps the library defaults. The
  /// Table-1 traces and the scale tree are fixed inputs: their shape sets
  /// a run's cost and memory.
  std::uint64_t seed = 0;
  /// Measured time budget of one run.
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
  /// Worker threads / shards / reactor budget: the host's nproc.
  unsigned threads = 1;
};

/// Mixes the workload seed into one library seed. Seed 0 returns `base`
/// unchanged; any other seed gives an independent stream per `salt`.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t workload_seed,
                          std::string_view salt);

/// Monotonic wall clock in seconds.
double now_s();
/// Calling thread's CPU time in seconds.
double thread_cpu_s();

/// Process-wide resource usage (all threads, joined ones included).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t voluntary_switches = 0;
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s,
            voluntary_switches - o.voluntary_switches};
  }
  double cpu_s() const { return user_s + sys_s; }
};
Usage process_usage();

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// True while one more operation lasting about `op_s` still ends within
/// `seconds` of `begin`: a measured loop runs at least once and ends near
/// its budget rather than up to one operation past it.
inline bool budget_left(double begin, double seconds, double op_s) {
  return now_s() - begin + op_s <= seconds;
}

/// Median of `s`, 0 when it is empty (every operation failed).
inline double median_of(const cesrm::util::Sample& s) {
  return s.empty() ? 0.0 : s.median();
}

/// Mean of the batches' medians (empty batches skipped; 0 when all are).
/// Set-up is sampled in short batches spread over a run. Kernel-heavy work
/// on the host flips between a fast and a ~40% slower state every few
/// seconds; a batch's median drops its outliers, and the mean then follows
/// the share of the run spent in each state, where one median over all
/// samples would jump from one state to the other.
double mean_of_medians(const std::vector<cesrm::util::Sample>& batches);

/// One-line host description: nproc, CPU model, kernel, build type.
std::string host_description();

// --------------------------------------------------------------- spans ----

/// In-memory spans of a traced run. A span has a name, start and end (s,
/// monotonic), a parent (-1 = root) and a group id shared by the spans of
/// one job or run. Thread-safe; a disabled recorder records nothing.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::uint64_t group = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span now; returns its id (-1 when disabled).
  int open(std::string name, int parent, std::uint64_t group);
  void close(int id);
  /// Records an already finished span.
  int add(std::string name, double start, double end, int parent,
          std::uint64_t group);

  /// Self time per span name: each span minus the union of its children.
  std::map<std::string, double> self_seconds() const;
  /// Total seconds per span name.
  std::map<std::string, double> total_seconds() const;
  /// Share of [start, end] that no root span covers, in percent.
  double uncovered_pct(double start, double end) const;
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent = -1,
             std::uint64_t group = 0)
      : rec_(rec), id_(rec.open(std::move(name), parent, group)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

// -------------------------------------------------------------- report ----

/// What one invocation prints: the gate's verdict and counts, the metrics
/// (end-to-end or per-layer), and free-form detail lines for humans.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> lines;

  void metric(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines.push_back(text); }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

/// Closes a traced run's span bookkeeping: reports the share of
/// [begin, end] no root span covers, prints each span name's total and
/// self time, and writes the spans to opts.spans_out when it is set.
void report_spans(const SpanRecorder& spans, double begin, double end,
                  const Options& opts, Report& report);

/// Formats a double with every digit it has (round-trip precision).
std::string fmt_num(double v);

}  // namespace perfbench
