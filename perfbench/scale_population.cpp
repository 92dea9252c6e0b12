// scale_population — CESRM at 10^5 receivers on the scale path.
//
// harness::run_scale with 100-member srm::ReceiverBlocks and one shard per
// CPU, repeated until the time budget is spent. It skips per-member
// agents, traces and inference, and runs the sharded event core over a
// working set far larger than the CPU caches. One single-shard call per
// run checks that results do not depend on the shard count.
#include <algorithm>

#include "gate.hpp"
#include "harness/scale.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Calls per pass of a traced run (untraced base, then traced).
constexpr int kTracedCalls = 5;

struct Rep {
  double span_s = 0;  ///< the whole run_scale call
  double run_s = 0;   ///< its reported event-loop wall time
  double cpu_s = 0;
};

}  // namespace

void run_scale_population(const Options& opts, Report& report) {
  Gate gate;
  SpanRecorder spans(opts.trace);
  cesrm::harness::ScaleConfig cfg;
  cfg.protocol = cesrm::Protocol::kCesrm;
  cfg.receivers = 100000;
  cfg.block_members = 100;
  cfg.shards = static_cast<int>(opts.threads);
  const double rx_pkts =
      static_cast<double>(cfg.receivers) * static_cast<double>(cfg.packets);

  cesrm::harness::ScaleResult last;
  std::optional<Digest> reference;
  // One call through the gate; its digest must equal every other call's.
  const auto call = [&](int shards, bool record, std::vector<Rep>* reps,
                        std::uint64_t group) {
    cesrm::harness::ScaleConfig c = cfg;
    c.shards = shards;
    gate.attempt("run_scale shards=" + std::to_string(shards),
                 [&]() -> std::optional<std::string> {
                   SpanRecorder off(false);
                   ScopedSpan span(record ? spans : off, "harness.run_scale",
                                   -1, group);
                   const Usage u0 = process_usage();
                   const double t0 = now_s();
                   last = cesrm::harness::run_scale(c);
                   const double dt = now_s() - t0;
                   const Usage du = process_usage() - u0;
                   if (record)
                     spans.add("sim.run", t0 + dt - last.wall_seconds, t0 + dt,
                               span.id(), group);
                   if (auto why = check_scale(last)) return why;
                   Digest d;
                   fold(d, last);
                   if (!reference) {
                     reference = d;
                   } else if (reference->value() != d.value()) {
                     gate.mismatch("scale digest " + d.hex() + " at shards=" +
                                   std::to_string(shards) + " differs from " +
                                   reference->hex());
                   }
                   if (reps) reps->push_back({dt, last.wall_seconds, du.cpu_s()});
                   return std::nullopt;
                 });
  };

  // Warm-up and invariance check: one call at the measured shard count,
  // then, warm, single-shard calls; a traced run makes three, and their
  // median event-loop time is the reference of sim.shard_speedup. None is
  // a measured call.
  std::vector<Rep> single;
  call(cfg.shards, false, nullptr, 0);
  for (int i = 0; i < (opts.trace ? 3 : 1); ++i) call(1, false, &single, 0);

  std::vector<Rep> reps, base;
  double t_begin = now_s();
  std::uint64_t group = 1;
  if (opts.trace) {
    // Traced: a few untraced calls price the spans, then traced ones.
    for (int i = 0; i < kTracedCalls; ++i) call(cfg.shards, false, &base, group++);
    t_begin = now_s();
    for (int i = 0; i < kTracedCalls; ++i) call(cfg.shards, true, &reps, group++);
  } else {
    do {
      call(cfg.shards, false, &reps, group++);
    } while (budget_left(t_begin, opts.seconds,
                         reps.empty() ? 0.0 : reps.back().span_s));
  }
  const double t_end = now_s();

  cesrm::util::Sample setup, rate, cpu, ns_event, busy, run;
  for (const Rep& r : reps) {
    run.add(r.run_s);
    setup.add(r.span_s - r.run_s);
    rate.add(rx_pkts / r.span_s);
    cpu.add(1e6 * r.cpu_s / rx_pkts);
    ns_event.add(1e9 * r.run_s /
                 static_cast<double>(std::max<std::uint64_t>(1, last.events_executed)));
    busy.add(100.0 * r.cpu_s / (cfg.shards * r.span_s));
  }
  {
    std::string spans_line = "call span_s:";
    for (const Rep& r : reps) spans_line += " " + fmt_num(r.span_s);
    report.line(spans_line);
  }
  report.line(std::to_string(cfg.receivers) + " receivers in " +
              std::to_string(last.blocks) + " blocks, " +
              std::to_string(cfg.shards) + " shards, " +
              std::to_string(reps.size()) + " measured calls, digest " +
              (reference ? reference->hex() : std::string("none")));
  if (!opts.trace) {
    report.metric("setup_s", median_of(setup), "s");
    report.metric("rx_pkts_per_s", median_of(rate), "1/s");
    report.metric("cpu_us_per_pkt", median_of(cpu), "us");
  } else {
    // CPU rather than wall: a call's wall time swings far more than its
    // CPU time when one shard thread is descheduled.
    cesrm::util::Sample base_cpu, traced_cpu;
    for (const Rep& r : base) base_cpu.add(r.cpu_s);
    for (const Rep& r : reps) traced_cpu.add(r.cpu_s);
    report.metric("obs.overhead_pct",
                  base_cpu.empty() || traced_cpu.empty()
                      ? 0.0
                      : 100.0 * (traced_cpu.median() / base_cpu.median() - 1.0),
                  "%");
    report.metric("harness.scale_setup_s", median_of(setup), "s");
    report.metric("sim.events", static_cast<double>(last.events_executed),
                  "count");
    report.metric("sim.ns_per_event", median_of(ns_event), "ns");
    report.metric("sim.shard_busy_pct", median_of(busy), "%");
    cesrm::util::Sample single_run;
    for (const Rep& r : single) single_run.add(r.run_s);
    if (!single_run.empty() && !run.empty())
      report.metric("sim.shard_speedup", single_run.median() / run.median(),
                    "ratio");
    report.metric("srm.block_requests",
                  static_cast<double>(last.requests_sent), "count");
    report.metric("srm.block_bytes_per_receiver", last.bytes_per_receiver,
                  "B");
    report.metric("srm.session_savings",
                  last.session_crossings
                      ? static_cast<double>(last.flat_session_crossings) /
                            static_cast<double>(last.session_crossings)
                      : 0.0,
                  "ratio");
    report.metric("net.crossings.session",
                  static_cast<double>(last.session_crossings), "count");
    report_spans(spans, t_begin, t_end, opts, report);
  }
  if (!opts.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.correct = gate.correct();
  report.attempted = gate.attempted();
  report.failed = gate.failed();
  for (const auto& m : gate.messages()) report.line(m);
}

}  // namespace perfbench
