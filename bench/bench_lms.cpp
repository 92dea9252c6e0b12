// bench_lms — CESRM vs LMS (the §3.3/§5 comparison), healthy and churned.
//
// The paper's positioning against router-assisted protocols rests on two
// claims:  (1) under stable membership, LMS-style designated-replier
// recovery and CESRM's expedited recovery deliver comparable latency and
// localized retransmissions, but CESRM needs no router replier state;
// (2) under churn, LMS requests black-hole at stale entries until the
// router state repairs, while CESRM degrades gracefully to SRM and
// re-seeds its caches from the fallback recoveries.
//
// This bench runs both protocols (plus plain SRM as the reference) over
// Table-1 traces, in a healthy phase and with a replier crash at the
// midpoint, reporting recovery latency, retransmission exposure, and the
// post-crash latency spike.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/group.hpp"
#include "lms/lms_agent.hpp"
#include "net/network.hpp"
#include "util/stats.hpp"

namespace {

using namespace cesrm;

enum class Proto { kSrm, kCesrm, kLms };
const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kSrm: return "SRM";
    case Proto::kCesrm: return "CESRM";
    case Proto::kLms: return "LMS";
  }
  return "?";
}

struct RunOutcome {
  util::OnlineStats pre_latency;     // normalized, detections before crash
  util::OnlineStats post_latency;    // after crash
  util::OnlineStats window_latency;  // within the repair window after crash
  std::uint64_t unrecovered = 0;
  double exposure = 0.0;  // retransmission link crossings per recovery
  std::vector<harness::MemberResult> members;  // kept for --slo only
};

RunOutcome run(Proto proto, const trace::GeneratedTrace& gen,
               const infer::LinkTraceRepresentation& links,
               const bench::BenchOptions& opts, bool crash) {
  const auto& tree = gen.loss->tree();
  sim::Simulator sim;
  net::Network network(sim, tree, opts.base.network);
  util::Rng rng(opts.seed);

  lms::LmsDirectory directory(sim, tree, sim::SimTime::seconds(10));
  lms::LmsConfig lms_cfg;
  lms_cfg.srm = opts.base.cesrm.srm;

  harness::Group group(
      tree, rng,
      [&](net::NodeId node,
          util::Rng agent_rng) -> std::unique_ptr<srm::SrmAgent> {
        if (proto == Proto::kLms)
          return std::make_unique<lms::LmsAgent>(sim, network, node,
                                                 tree.root(), lms_cfg,
                                                 directory, agent_rng);
        return harness::make_agent(
            proto == Proto::kCesrm ? Protocol::kCesrm : Protocol::kSrm, sim,
            network, node, tree.root(), opts.base.cesrm, agent_rng);
      });
  network.set_drop_fn([&](const net::Packet& pkt, net::NodeId from,
                          net::NodeId to) {
    return pkt.type == net::PacketType::kData &&
           links.drops(pkt.seq, from, to);
  });
  group.start_sessions(rng, opts.base.cesrm.srm.session_period);

  const sim::SimTime warmup = sim::SimTime::seconds(5);
  const net::SeqNo packets = gen.loss->packet_count();
  harness::ChainedSource transmission(
      sim, gen.loss->period(), packets,
      [&group](net::SeqNo seq) { group.source_agent().send_data(seq); });
  transmission.start(warmup);

  // Crash scenario: at the midpoint, kill the receiver LMS designates at
  // the most routers — the worst case for stale replier state, and the
  // analogous "most-used replier" case for CESRM's caches.
  const sim::SimTime midpoint = warmup + gen.loss->period() * (packets / 2);
  if (crash) {
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
    sim.schedule_at(midpoint, [&group, &directory, victim] {
      for (std::size_t i = 0; i < group.size(); ++i)
        if (group.node(i) == victim) group.agent(i).fail();
      directory.fail_member(victim);
    });
  }

  sim.run_until(warmup + gen.loss->period() * packets +
                sim::SimTime::seconds(60));

  RunOutcome out;
  std::uint64_t recoveries = 0;
  std::vector<harness::MemberResult> members = group.collect();
  for (const harness::MemberResult& m : members) {
    if (m.failed || m.is_source) continue;
    for (const auto& r : m.stats.recoveries) {
      if (!r.recovered) {
        ++out.unrecovered;
        continue;
      }
      ++recoveries;
      const double norm = r.latency_seconds() / m.rtt_to_source;
      (r.detect_time < midpoint ? out.pre_latency : out.post_latency)
          .add(norm);
      if (r.detect_time >= midpoint &&
          r.detect_time < midpoint + sim::SimTime::seconds(10))
        out.window_latency.add(norm);
    }
  }
  const std::uint64_t retrans_crossings =
      network.crossings().total_of(net::PacketType::kReply) +
      network.crossings().total_of(net::PacketType::kExpReply);
  out.exposure = recoveries ? static_cast<double>(retrans_crossings) /
                                  static_cast<double>(recoveries)
                            : 0.0;
  if (opts.slo) out.members = std::move(members);
  return out;
}

/// The first flag whose effect run() cannot deliver, or "". run() builds
/// its groups outside run_experiment, so it records no results or
/// observability artifacts, keeps no durable state and drops only data.
std::string unsupported_flag(const util::CliFlags& flags) {
  for (const char* name : {"json", "trace-out", "metrics-out", "stream-out"})
    if (!flags.get_string(name).empty()) return std::string("--") + name;
  if (flags.get_string("durable") != "off") return "--durable";
  if (flags.get_bool("lossy-recovery")) return "--lossy-recovery";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags("Baseline comparison: SRM vs CESRM vs LMS");
  bench::add_common_flags(flags, "1,7,13");
  if (!flags.parse(argc, argv)) return 1;
  bench::BenchOptions opts;
  if (!bench::read_common_flags(flags, &opts)) return 1;
  if (const std::string bad = unsupported_flag(flags); !bad.empty()) {
    std::cerr << "bench_lms: " << bad
              << " is not supported (the LMS comparison runs its own groups, "
                 "outside run_experiment)\n";
    return 1;
  }
  if (opts.packets_cap == 0) opts.packets_cap = 20000;
  bench::print_header("LMS baseline (§3.3/§5) — healthy and under churn",
                      opts);

  util::TextTable table;
  table.set_header({"Trace", "protocol", "latency (RTT)",
                    "repair-window latency", "window worst", "unrecovered",
                    "retrans crossings/recovery"});
  table.set_align(0, util::Align::kLeft);
  table.set_align(1, util::Align::kLeft);

  // The LMS comparison needs custom agents and crash scheduling, so run()
  // builds its group with its own agent factory instead of going through
  // run_experiment. Trace preparation goes through the runner's shared
  // cache and the 6 (protocol × {healthy, churned}) simulations per trace
  // fan out over --jobs worker threads.
  const Proto protos[] = {Proto::kSrm, Proto::kCesrm, Proto::kLms};
  const auto specs = bench::selected_specs(opts);
  auto runner = bench::make_runner(opts);
  const auto prepared = runner.prepare(specs);

  struct Cell {
    RunOutcome healthy, churned;
  };
  std::vector<Cell> cells(specs.size() * 3);
  harness::parallel_for(cells.size() * 2, opts.jobs, [&](std::size_t t) {
    const std::size_t cell = t / 2;
    const bool crash = t % 2 == 1;
    const auto& trace = *prepared[cell / 3];
    (crash ? cells[cell].churned : cells[cell].healthy) =
        run(protos[cell % 3], trace.gen, *trace.links, opts, crash);
  });
  // The --slo gate sees every simulated recovery, folded in cell order so
  // its verdict is the same for any --jobs.
  if (opts.slo) {
    for (const Cell& cell : cells) {
      opts.slo->accumulate(cell.healthy.members);
      opts.slo->accumulate(cell.churned.members);
    }
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    bool first = true;
    for (std::size_t p = 0; p < 3; ++p) {
      const Proto proto = protos[p];
      const auto& healthy = cells[i * 3 + p].healthy;
      const auto& churned = cells[i * 3 + p].churned;
      util::OnlineStats healthy_all = healthy.pre_latency;
      healthy_all.merge(healthy.post_latency);
      table.add_row(
          {first ? spec.name : "", proto_name(proto),
           util::fmt_fixed(healthy_all.mean(), 3),
           churned.window_latency.empty()
               ? "-"
               : util::fmt_fixed(churned.window_latency.mean(), 3),
           churned.window_latency.empty()
               ? "-"
               : util::fmt_fixed(churned.window_latency.max(), 1),
           util::fmt_count(churned.unrecovered),
           util::fmt_fixed(healthy.exposure, 1)});
      first = false;
    }
    table.add_rule();
  }
  table.print();
  std::cout << "\nReading: healthy LMS and CESRM both beat SRM's latency; "
               "LMS has the lowest exposure\n(perfectly localized subcasts) "
               "but after the designated replier crashes its requests\n"
               "black-hole until the 10 s router-state repair — the "
               "post-crash latency spike — while\nCESRM degrades to SRM "
               "and re-seeds its caches (§3.3, §5: \"CESRM remains robust "
               "...\nwhereas LMS does not\").\n";
  return bench::slo_exit(opts);
}
