// paper_sweep — the run a reader makes to regenerate every figure.
//
// A closed batch on `threads` workers: ExperimentRunner::prepare on the 14
// uncapped Table-1 specs (trace generation, calibration, §4.2 inference),
// then ExperimentRunner::run on the 28 SRM + CESRM jobs at paper defaults,
// then the harness/reports figure functions. Set-up is timed on fresh
// runners between sweeps and reported as a median; the sweep repeats until
// the time budget is spent. Jobs are submitted longest first (packets ×
// receivers) so the last worker to finish sets the sweep's wall time as
// little as possible; outcomes do not depend on order or worker count.
#include <algorithm>
#include <map>
#include <thread>

#include "gate.hpp"
#include "harness/reports.hpp"
#include "harness/runner.hpp"
#include "infer/link_estimator.hpp"
#include "probes.hpp"
#include "trace/catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cesrm::Protocol;
using cesrm::harness::ExperimentJob;
using cesrm::harness::JobOutcome;

constexpr int kSetupBatch = 3;  // timed prepares per batch

double rx_pkts(const cesrm::trace::TraceSpec& s) {
  return static_cast<double>(s.packets) * static_cast<double>(s.receivers);
}

std::vector<ExperimentJob> make_jobs(
    const std::vector<cesrm::trace::TraceSpec>& specs, std::uint64_t seed,
    cesrm::net::SeqNo max_packets, cesrm::obs::ObsConfig observe) {
  std::vector<const cesrm::trace::TraceSpec*> order;
  for (const auto& s : specs) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return rx_pkts(*a) > rx_pkts(*b);
  });
  std::vector<ExperimentJob> jobs;
  for (const auto* s : order)
    for (Protocol p : {Protocol::kSrm, Protocol::kCesrm}) {
      ExperimentJob job;
      job.spec = *s;
      job.protocol = p;
      job.config.seed = derive_seed(1, seed, "experiment");
      job.config.max_packets = max_packets;
      job.config.observe = observe;
      jobs.push_back(std::move(job));
    }
  return jobs;
}

/// What one sweep measured.
struct Sweep {
  bool ran = false;
  double run_s = 0;      ///< ExperimentRunner::run
  double reports_s = 0;  ///< figure functions
  double cpu_s = 0;      ///< process CPU over run + reports
  double job_s[2] = {};  ///< Σ job wall per protocol
  double job_cpu_s[2] = {};
  double rx_pkts[2] = {};
  Digest digest;
  std::uint64_t events = 0;
  cesrm::net::CrossingStats crossings;
  HostTally host[2];  ///< per protocol
  double latency_vs_srm = 0, overhead_vs_srm = 0;
  cesrm::obs::MetricsSnapshot metrics;
};

/// Per-job timing handed from the runner's progress callback to the sweep
/// in flight. The callback is serialized by the runner and runs on the
/// job's worker thread, so each thread's CPU clock since its previous job
/// is the job's CPU time.
struct Progress {
  std::mutex mu;
  Sweep* sweep = nullptr;
  SpanRecorder* spans = nullptr;
  int run_span = -1;
  std::uint64_t group = 0;
  std::map<std::thread::id, double> last_cpu;

  void on_job(const JobOutcome& out) {
    const double cpu = thread_cpu_s();
    const double now = now_s();
    std::lock_guard<std::mutex> lock(mu);
    double& last = last_cpu[std::this_thread::get_id()];
    const int p = static_cast<int>(out.protocol);
    sweep->job_cpu_s[p] += cpu - last;
    last = cpu;
    sweep->job_s[p] += out.wall_seconds;
    spans->add(std::string("harness.run_experiment.") +
                   (out.protocol == Protocol::kSrm ? "srm" : "cesrm"),
               now - out.wall_seconds, now, run_span, group * 1000 + out.index);
  }
};

/// Losses the trace withholds from receivers among the first `cap`
/// packets (all packets when cap is 0).
std::uint64_t withheld(const cesrm::trace::LossTrace& loss,
                       cesrm::net::SeqNo cap) {
  if (cap == 0 || cap >= loss.packet_count()) return loss.total_losses();
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < loss.receiver_count(); ++r)
    for (cesrm::net::SeqNo s = 0; s < cap; ++s) n += loss.lost(r, s);
  return n;
}

/// Runs the jobs, then every figure, through the gate.
Sweep run_sweep(cesrm::harness::ExperimentRunner& runner, Progress& progress,
                const std::vector<ExperimentJob>& jobs, Gate& gate,
                SpanRecorder& spans, std::uint64_t group) {
  Sweep sw;
  {
    std::lock_guard<std::mutex> lock(progress.mu);
    progress.sweep = &sw;
    progress.spans = &spans;
    progress.group = group;
    // New worker threads start their CPU clocks at zero; a single-worker
    // runner runs jobs on this thread instead.
    progress.last_cpu = {{std::this_thread::get_id(), thread_cpu_s()}};
  }
  const Usage u0 = process_usage();
  std::vector<JobOutcome> outcomes;
  {
    ScopedSpan span(spans, "harness.run", -1, group);
    progress.run_span = span.id();
    const double t0 = now_s();
    try {
      outcomes = runner.run(jobs);
    } catch (const std::exception& e) {
      // One job threw and took the sweep's other outcomes with it.
      for (const auto& job : jobs)
        gate.attempt(job.spec.name, [&]() -> std::optional<std::string> {
          return std::string("sweep threw: ") + e.what();
        });
      return sw;
    }
    sw.run_s = now_s() - t0;
  }
  {
    ScopedSpan span(spans, "harness.reports", -1, group);
    const double t0 = now_s();
    std::map<std::pair<int, int>, const JobOutcome*> by_trace;
    for (const auto& o : outcomes) {
      const ExperimentJob& job = jobs[o.index];
      gate.attempt(job.spec.name, [&]() {
        return check_job(o.result,
                         withheld(o.trace->loss(), job.config.max_packets));
      });
      by_trace[{job.spec.id, static_cast<int>(o.protocol)}] = &o;
    }
    double srm_norm = 0, cesrm_norm = 0;
    std::uint64_t srm_rec = 0, cesrm_rec = 0;
    for (const auto& [key, o] : by_trace) {
      const auto& r = o->result;
      fold(sw.digest, r);
      sw.events += r.events_executed;
      accumulate(sw.crossings, r.crossings);
      sw.metrics.merge(r.metrics);
      sw.rx_pkts[key.second] += rx_pkts(jobs[o->index].spec);
      sw.host[key.second].add(r);
      if (key.second != static_cast<int>(Protocol::kCesrm)) continue;
      const auto srm_it = by_trace.find({key.first, 0});
      if (srm_it == by_trace.end()) continue;
      const auto& srm = srm_it->second->result;
      srm_norm += srm.mean_normalized_recovery_time();
      cesrm_norm += r.mean_normalized_recovery_time();
      srm_rec += recovery_packets(srm.crossings);
      cesrm_rec += recovery_packets(r.crossings);
      // Every figure of §4.4 for this trace, folded into the digest so
      // the reports are checked across sweeps like the raw results.
      for (const auto& row : cesrm::harness::figure1(srm, r)) {
        sw.digest.add(row.srm_avg_norm);
        sw.digest.add(row.cesrm_avg_norm);
      }
      for (const auto& row : cesrm::harness::figure2(r))
        sw.digest.add(row.difference_rtt);
      for (const auto& rows : {cesrm::harness::figure3_requests(srm, r),
                               cesrm::harness::figure4_replies(srm, r)})
        for (const auto& row : rows)
          for (std::uint64_t v : {row.srm, row.cesrm, row.cesrm_exp})
            sw.digest.add(v);
      const auto f5 = cesrm::harness::figure5(srm, r);
      for (double v : {f5.pct_successful_expedited, f5.retransmission_pct_of_srm,
                       f5.control_multicast_pct_of_srm,
                       f5.control_unicast_pct_of_srm})
        sw.digest.add(v);
      const auto f5w = cesrm::harness::figure5_wire(srm, r);
      for (std::uint64_t v : {f5w.srm_retrans_bytes, f5w.cesrm_retrans_bytes,
                              f5w.srm_control_bytes,
                              f5w.cesrm_mcast_control_bytes,
                              f5w.cesrm_ucast_control_bytes})
        sw.digest.add(v);
    }
    sw.latency_vs_srm = srm_norm > 0 ? cesrm_norm / srm_norm : 0.0;
    sw.overhead_vs_srm =
        srm_rec > 0 ? static_cast<double>(cesrm_rec) / static_cast<double>(srm_rec)
                    : 0.0;
    sw.reports_s = now_s() - t0;
  }
  sw.cpu_s = (process_usage() - u0).cpu_s();
  sw.ran = true;
  return sw;
}

}  // namespace

void run_paper_sweep(const Options& opts, Report& report) {
  Gate gate;
  SpanRecorder spans(opts.trace);
  SpanRecorder off(false);
  const auto& specs = cesrm::trace::table1_specs();
  Progress progress;
  cesrm::harness::RunnerOptions ro;
  ro.jobs = opts.threads;
  ro.on_progress = [&progress](const JobOutcome& out, std::size_t,
                               std::size_t) { progress.on_job(out); };

  // Set-up: fresh runners prepare the specs; the current runner's traces
  // are swept. An untimed prepare absorbs the cold start. Untraced runs
  // time a batch of kSetupBatch prepares before every sweep and after the
  // last (see mean_of_medians).
  std::vector<cesrm::util::Sample> setup;
  std::unique_ptr<cesrm::harness::ExperimentRunner> runner;
  const auto prepare = [&](int count, bool timed) {
    if (timed) setup.emplace_back();
    for (int i = 0; i < count; ++i) {
      runner.reset();
      runner = std::make_unique<cesrm::harness::ExperimentRunner>(ro);
      const double t0 = now_s();
      runner->prepare(specs);
      if (timed) setup.back().add(now_s() - t0);
    }
  };
  prepare(1, false);
  int calibration_iters = 0;
  for (const auto& s : specs)
    calibration_iters += runner->cache().get(s)->gen.calibration_iters;

  // Warm-up: a capped sweep puts untimed work on every worker thread.
  run_sweep(*runner, progress, make_jobs(specs, opts.seed, 2000, {}), gate,
            off, 0);

  const auto jobs = make_jobs(specs, opts.seed, 0, {});
  double total_rx = 0;
  for (const auto& j : jobs) total_rx += rx_pkts(j.spec);

  std::vector<Sweep> sweeps;
  const double t_begin = now_s();
  double t_traced = t_begin;
  if (!opts.trace) {
    double last_s = 0;
    do {
      const double t0 = now_s();
      prepare(kSetupBatch, true);
      sweeps.push_back(
          run_sweep(*runner, progress, jobs, gate, off, sweeps.size() + 1));
      last_s = now_s() - t0;
    } while (budget_left(t_begin, opts.seconds, last_s));
    prepare(kSetupBatch, true);
  } else {
    // The untraced sweep prices the traced one, which turns on the obs
    // metrics registry and streaming sketch.
    sweeps.push_back(run_sweep(*runner, progress, jobs, gate, off, 1));
    cesrm::obs::ObsConfig observe;
    observe.metrics = true;
    observe.stream = true;
    t_traced = now_s();
    sweeps.push_back(run_sweep(*runner, progress,
                               make_jobs(specs, opts.seed, 0, observe), gate,
                               spans, 2));
  }

  // Every sweep of a run must reproduce the first one bit for bit (the
  // traced sweep's obs switches change no protocol output).
  const Sweep* first = nullptr;
  cesrm::util::Sample rate, cpu;
  for (const Sweep& sw : sweeps) {
    if (!sw.ran) continue;
    if (first == nullptr) {
      first = &sw;
    } else if (sw.digest.value() != first->digest.value()) {
      gate.mismatch("sweep digest " + sw.digest.hex() + " differs from " +
                    first->digest.hex());
    }
    rate.add(total_rx / (sw.run_s + sw.reports_s));
    cpu.add(1e6 * sw.cpu_s / total_rx);
    report.line("sweep run_s=" + fmt_num(sw.run_s) + " reports_s=" +
                fmt_num(sw.reports_s) + " cpu_s=" + fmt_num(sw.cpu_s));
  }
  report.line("14 Table-1 traces x {SRM, CESRM} on " +
              std::to_string(opts.threads) + " workers, " +
              std::to_string(sweeps.size()) + " sweeps, digest " +
              (first ? first->digest.hex() : std::string("none")));
  report.line("setup_s samples: " + [&] {
    std::string s;
    for (const auto& batch : setup)
      for (double v : batch.values()) s += fmt_num(v) + " ";
    return s;
  }());
  if (first) {
    report.line("latency_vs_srm " + fmt_num(first->latency_vs_srm) +
                " overhead_vs_srm " + fmt_num(first->overhead_vs_srm) +
                " sim.events " + std::to_string(first->events) +
                " trace.calibration_iters " + std::to_string(calibration_iters));
  }

  if (!opts.trace) {
    report.metric("setup_s", mean_of_medians(setup), "s");
    report.metric("rx_pkts_per_s", median_of(rate), "1/s");
    report.metric("cpu_us_per_pkt", median_of(cpu), "us");
  } else if (first != nullptr && sweeps.size() == 2 && sweeps[1].ran) {
    const Sweep& base = sweeps[0];
    const Sweep& traced = sweeps[1];
    // Set-up layers: the benchmark's own calls into trace and infer, one
    // span each, on the same worker count as prepare.
    double gen_s = 0, est_s = 0, link_s = 0;
    {
      std::mutex mu;
      ScopedSpan prep(spans, "harness.prepare", -1, 3);
      cesrm::harness::parallel_for(specs.size(), opts.threads, [&](std::size_t i) {
        const double a = now_s();
        const auto gen = cesrm::trace::generate_trace(specs[i]);
        const double b = now_s();
        const auto est = cesrm::infer::estimate_links_yajnik(*gen.loss);
        const double c = now_s();
        const cesrm::infer::LinkTraceRepresentation links(*gen.loss,
                                                          est.loss_rate);
        const double d = now_s();
        std::lock_guard<std::mutex> lock(mu);
        spans.add("trace.generate_trace", a, b, prep.id(), 3000 + i);
        spans.add("infer.estimate_links_yajnik", b, c, prep.id(), 3000 + i);
        spans.add("infer.link_trace", c, d, prep.id(), 3000 + i);
        gen_s += b - a;
        est_s += c - b;
        link_s += d - c;
      });
    }
    report.metric("trace.generate_s", gen_s, "s");
    report.metric("trace.calibration_iters", calibration_iters, "count");
    report.metric("infer.estimate_s", est_s, "s");
    report.metric("infer.link_trace_s", link_s, "s");

    const double job_s = traced.job_s[0] + traced.job_s[1];
    report.metric("harness.srm_job_s", traced.job_s[0], "s");
    report.metric("harness.cesrm_job_s", traced.job_s[1], "s");
    report.metric("harness.worker_idle_s",
                  std::max(0.0, opts.threads * traced.run_s - job_s), "s");
    report.metric("harness.reports_s", traced.reports_s, "s");
    report.metric("harness.srm_cpu_us_per_pkt",
                  1e6 * traced.job_cpu_s[0] / traced.rx_pkts[0], "us");
    report.metric("harness.cesrm_cpu_us_per_pkt",
                  1e6 * traced.job_cpu_s[1] / traced.rx_pkts[1], "us");
    const double base_job_s = base.job_s[0] + base.job_s[1];
    report.metric("obs.overhead_pct",
                  base_job_s > 0 ? 100.0 * (job_s / base_job_s - 1.0) : 0.0,
                  "%");

    report.metric("sim.events", static_cast<double>(traced.events), "count");
    report.metric("sim.ns_per_event",
                  1e9 * base_job_s / static_cast<double>(std::max<std::uint64_t>(1, base.events)),
                  "ns");
    const auto& c = traced.metrics.counters;
    const auto counter = [&c](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double scheduled = counter("sim.events_scheduled");
    const double cancel_share =
        scheduled > 0 ? counter("sim.events_cancelled") / scheduled : 0.0;
    report.metric("sim.cancelled_pct", 100.0 * cancel_share, "%");
    const auto hw = traced.metrics.gauges.find("sim.queue_high_water");
    const double high_water =
        hw == traced.metrics.gauges.end() ? 0.0 : hw->second;
    report.metric("sim.queue_high_water", high_water, "count");
    {
      ScopedSpan span(spans, "probe.event_queue", -1, 4);
      report.metric("sim.queue_op_ns",
                    probe_queue_op_ns(static_cast<std::size_t>(high_water),
                                      cancel_share),
                    "ns");
    }

    for (std::size_t k = 0; k < cesrm::net::kPacketTypeCount; ++k)
      report.metric(std::string("net.crossings.") + kPacketTypeKeys[k],
                    static_cast<double>(traced.crossings.total_of(
                        static_cast<cesrm::net::PacketType>(k))),
                    "count");
    {
      ScopedSpan span(spans, "probe.network", -1, 5);
      std::vector<const cesrm::net::MulticastTree*> trees;
      for (const auto& s : specs)
        trees.push_back(&runner->cache().get(s)->loss().tree());
      report.metric("net.hop_ns", probe_hop_ns(trees), "ns");
    }

    report_host_tallies(report, traced.host[0], traced.host[1]);
    report.metric("cesrm.latency_vs_srm", traced.latency_vs_srm, "ratio");
    report.metric("cesrm.overhead_vs_srm", traced.overhead_vs_srm, "ratio");
    report_spans(spans, t_traced, now_s(), opts, report);
  }
  if (!opts.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.correct = gate.correct();
  report.attempted = gate.attempted();
  report.failed = gate.failed();
  for (const auto& m : gate.messages()) report.line(m);
}

}  // namespace perfbench
