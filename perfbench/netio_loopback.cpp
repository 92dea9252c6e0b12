// netio_loopback — the protocols over real loopback UDP sockets.
//
// An open loop: per protocol, one netio::run_netio call whose source sends
// kPackets DATA packets at kRate packets/s to the 4 receivers of
// 0(1(2 3) 4), with 5 ms emulated links and seeded 5% DATA loss on the
// shared link 1. Calls alternate SRM, CESRM until the time budget is
// spent. Wall-clock recovery latency is what a deployed user sees; CPU per
// delivered packet is what the sockets, reactor, codec and loss shim cost.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <sstream>

#include "gate.hpp"
#include "netio/run.hpp"
#include "obs/causal.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cesrm::Protocol;
using cesrm::sim::SimTime;

constexpr const char* kTree = "0(1(2 3) 4)";
constexpr std::uint64_t kPackets = 40000;
constexpr std::int64_t kRate = 20000;  // DATA packets per second
constexpr std::int64_t kLinkDelayMs = 5;
constexpr std::uint64_t kWarmPackets = 4000;
constexpr int kSetupBatch = 100;  // group bring-ups per batch

/// Group and port derived from the process id, so concurrent benchmark
/// processes never deliver into each other's group.
void isolate(cesrm::netio::NetioRunConfig& cfg) {
  std::uint64_t state = static_cast<std::uint64_t>(getpid()) * 0x9E3779B97F4A7C15ULL;
  const std::uint64_t h = cesrm::util::splitmix64(state);
  cfg.mcast_addr = 0xEFC00000u | static_cast<std::uint32_t>((h >> 8) & 0xFFFF);
  if ((cfg.mcast_addr & 0xFF) == 0) cfg.mcast_addr |= 1;
  cfg.mcast_port = static_cast<std::uint16_t>(10000 + (h >> 32) % 20000);
}

std::string address(const cesrm::netio::NetioRunConfig& cfg) {
  std::ostringstream os;
  os << (cfg.mcast_addr >> 24) << '.' << ((cfg.mcast_addr >> 16) & 0xFF)
     << '.' << ((cfg.mcast_addr >> 8) & 0xFF) << '.' << (cfg.mcast_addr & 0xFF)
     << ':' << cfg.mcast_port;
  return os.str();
}

cesrm::netio::NetioRunConfig make_config(Protocol protocol,
                                         std::uint64_t seed,
                                         std::uint64_t packets) {
  cesrm::netio::NetioRunConfig cfg;
  cfg.protocol = protocol;
  cfg.tree_text = kTree;
  cfg.seed = derive_seed(1, seed, "netio.experiment");
  cfg.shim.seed = derive_seed(1, seed, "netio.shim");
  cfg.shim.data_loss = 0.05;
  cfg.shim.link_delay = SimTime::millis(kLinkDelayMs);
  cfg.shim.lossy_links = {1};
  cfg.packets = static_cast<cesrm::net::SeqNo>(packets);
  cfg.period = SimTime::nanos(1'000'000'000 / kRate);
  // The warm-up call is short: it only has to touch every code path.
  const bool warm = packets <= kWarmPackets;
  cfg.warmup = SimTime::millis(warm ? 200 : 750);
  cfg.drain = SimTime::millis(warm ? 800 : 1500);
  cfg.cesrm.srm.session_period = SimTime::millis(500);
  isolate(cfg);
  return cfg;
}

/// Everything measured over the calls of one protocol.
struct Tally {
  cesrm::util::Sample latency_ms;  ///< detect → recover, all receivers
  double wall_s = 0;
  Usage usage;
  std::uint64_t delivered = 0;  ///< DATA packets × receivers
  std::uint64_t calls = 0;
  cesrm::netio::SocketStats sockets;
  cesrm::net::CrossingStats crossings;
  std::vector<cesrm::obs::TraceEvent> events;
  HostTally host;
};

double percentile_of(const cesrm::util::Sample& s, double q) {
  return s.empty() ? 0.0 : s.percentile(q);
}

/// One run_netio call through the gate; folds its outputs into `tally`.
void one_call(Gate& gate, Tally& tally, Protocol protocol, std::uint64_t seed,
              std::uint64_t packets, bool observe, SpanRecorder& spans,
              std::uint64_t group) {
  cesrm::netio::NetioRunConfig cfg = make_config(protocol, seed, packets);
  cfg.observe_trace = observe;
  const std::string what = std::string("run_netio ") +
                           cesrm::protocol_name(protocol) + " on " +
                           address(cfg);
  gate.attempt(what, [&]() -> std::optional<std::string> {
    ScopedSpan span(spans, std::string("netio.run_netio.") +
                               (protocol == Protocol::kSrm ? "srm" : "cesrm"),
                    -1, group);
    const Usage u0 = process_usage();
    const double t0 = now_s();
    const auto out = cesrm::netio::run_netio(cfg);
    const double wall = now_s() - t0;
    const Usage du = process_usage() - u0;
    if (auto why = check_netio(out, packets)) return why;
    const auto& r = out.experiment;
    tally.wall_s += wall;
    tally.usage = {tally.usage.user_s + du.user_s, tally.usage.sys_s + du.sys_s,
                   tally.usage.voluntary_switches + du.voluntary_switches};
    tally.delivered += r.packets_sent * r.receivers().size();
    ++tally.calls;
    for (const auto& m : r.receivers())
      for (const auto& rec : m.stats.recoveries)
        if (rec.recovered)
          tally.latency_ms.add((rec.recover_time - rec.detect_time).to_millis());
    tally.host.add(r);
    for (const auto& s : out.sockets) {
      tally.sockets.datagrams_sent += s.datagrams_sent;
      tally.sockets.datagrams_received += s.datagrams_received;
      tally.sockets.self_filtered += s.self_filtered;
      tally.sockets.shim_dropped += s.shim_dropped;
      tally.sockets.send_failures += s.send_failures;
      tally.sockets.decode_failed += s.decode_failed;
    }
    accumulate(tally.crossings, r.crossings);
    if (r.events)
      tally.events.insert(tally.events.end(), r.events->begin(),
                          r.events->end());
    return std::nullopt;
  });
}

const char* tag(Protocol p) { return p == Protocol::kSrm ? "srm" : "cesrm"; }

/// Recovery percentiles with their sample counts. A percentile is printed
/// only when at least 10 samples lie beyond it.
void latency_lines(Report& report, const char* name, const Tally& t) {
  const auto& lat = t.latency_ms;
  std::ostringstream os;
  os << name << " recoveries n=" << lat.count()
     << " p50=" << fmt_num(percentile_of(lat, 50)) << " ms";
  if (lat.count() >= 1000)
    os << " p99=" << fmt_num(percentile_of(lat, 99)) << " ms";
  else
    os << " p99=n/a (needs >= 1000 samples)";
  os << " cpu_user_s=" << fmt_num(t.usage.user_s)
     << " cpu_sys_s=" << fmt_num(t.usage.sys_s) << " calls=" << t.calls;
  report.line(os.str());
}

/// Per-layer metrics of one protocol's traced call.
void protocol_layer_metrics(Report& report, Protocol p, const Tally& t) {
  const std::string pre = std::string("netio.") + tag(p) + ".";
  const double n = static_cast<double>(t.latency_ms.count());
  report.metric(pre + "recoveries", n, "count");
  report.metric(pre + "recovery_p50_ms", percentile_of(t.latency_ms, 50), "ms");
  report.metric(pre + "recovery_p99_ms",
                n >= 1000 ? percentile_of(t.latency_ms, 99) : 0.0, "ms");
  const double delivered = static_cast<double>(std::max<std::uint64_t>(1, t.delivered));
  report.metric(pre + "cpu_us_per_pkt", 1e6 * t.usage.cpu_s() / delivered,
                "us");
  report.metric(pre + "cpu_user_s", t.usage.user_s, "s");
  report.metric(pre + "cpu_sys_s", t.usage.sys_s, "s");
  report.metric(pre + "wakeups_per_pkt",
                static_cast<double>(t.usage.voluntary_switches) / delivered,
                "count");

  // Causal phases of the traced call's recoveries, mean ms per recovery.
  const auto causal = cesrm::obs::analyze_causal(t.events);
  double phase_ns[cesrm::obs::kPhaseCount] = {};
  double stack_ns = 0;
  std::size_t expedited = 0;
  const auto tree = cesrm::net::parse_tree(kTree);
  for (const auto& c : causal.chains) {
    for (std::size_t i = 0; i < cesrm::obs::kPhaseCount; ++i)
      phase_ns[i] += static_cast<double>(c.phase_ns[i]);
    if (c.lifecycle.expedited && c.replier != cesrm::net::kInvalidNode) {
      const double legs =
          2.0 * static_cast<double>(tree.hop_distance(c.lifecycle.node,
                                                      c.replier)) *
          static_cast<double>(kLinkDelayMs) * 1e6;
      stack_ns += static_cast<double>(
                      c.phase_ns[static_cast<int>(cesrm::obs::Phase::kExpTransit)] +
                      c.phase_ns[static_cast<int>(
                          cesrm::obs::Phase::kRepairTransit)]) -
                  legs;
      ++expedited;
    }
  }
  const double chains = static_cast<double>(std::max<std::size_t>(1, causal.chains.size()));
  for (std::size_t i = 0; i < cesrm::obs::kPhaseCount; ++i)
    report.metric(std::string("recovery.") + tag(p) + "." +
                      cesrm::obs::phase_name(static_cast<cesrm::obs::Phase>(i)) +
                      "_ms",
                  phase_ns[i] / chains / 1e6, "ms");
  if (p == Protocol::kCesrm)
    report.metric("netio.stack_delay_ms",
                  expedited ? stack_ns / static_cast<double>(expedited) / 1e6
                            : 0.0,
                  "ms");
}

}  // namespace

void run_netio_loopback(const Options& opts, Report& report) {
  Gate gate;
  SpanRecorder spans(opts.trace);
  const Protocol kBoth[] = {Protocol::kSrm, Protocol::kCesrm};
  {
    const auto cfg = make_config(Protocol::kSrm, opts.seed, kPackets);
    report.line("group " + address(cfg) + ", tree " + kTree + ", " +
                std::to_string(kPackets) + " DATA packets at " +
                std::to_string(kRate) + "/s per call");
  }

  // Warm-up: a short untimed call per protocol starts every reactor
  // thread, socket path and allocator arena once.
  SpanRecorder off(false);
  {
    Tally scratch;
    for (Protocol p : kBoth)
      one_call(gate, scratch, p, opts.seed, kWarmPackets, false, off, 0);
  }

  // Set-up: bring a group up and tear it down again without traffic
  // (binding and joining every socket, building every agent, starting and
  // joining every member thread). The run's horizon is 1 ns, long past
  // once the sockets are bound, so no reactor sleeps. A batch runs before
  // every measured call and after the last (see mean_of_medians).
  std::vector<cesrm::util::Sample> setup;
  const auto bring_up = [&] {
    setup.emplace_back();
    for (int i = 0; i < kSetupBatch; ++i) {
      auto cfg = make_config(Protocol::kCesrm, opts.seed, 1);
      cfg.period = SimTime::nanos(1);
      cfg.warmup = cfg.drain = SimTime::zero();
      cfg.shim.data_loss = 0;
      cfg.check_invariants = false;
      gate.attempt("group bring-up on " + address(cfg),
                   [&]() -> std::optional<std::string> {
                     const double t0 = now_s();
                     cesrm::netio::run_netio(cfg);
                     setup.back().add(now_s() - t0);
                     return std::nullopt;
                   });
    }
  };

  Tally tally[2];
  std::uint64_t group = 1;
  const double t_begin = now_s();
  if (!opts.trace) {
    // Measured calls alternate protocols until the budget is spent; each
    // round runs both, so drift hits both alike. Rates are taken per round
    // and reported as medians over rounds.
    cesrm::util::Sample rate, cpu;
    // Delivered packets, call wall and call CPU over both protocols so far.
    const auto totals = [&tally] {
      return std::array<double, 3>{
          static_cast<double>(tally[0].delivered + tally[1].delivered),
          tally[0].wall_s + tally[1].wall_s,
          tally[0].usage.cpu_s() + tally[1].usage.cpu_s()};
    };
    double round_s = 0;
    do {
      const auto before = totals();
      const double t0 = now_s();
      for (Protocol p : kBoth) {
        bring_up();
        one_call(gate, tally[static_cast<int>(p)], p, opts.seed, kPackets,
                 false, spans, group++);
      }
      round_s = now_s() - t0;
      const auto after = totals();
      const double delivered = after[0] - before[0];
      if (delivered > 0) {
        rate.add(delivered / (after[1] - before[1]));
        cpu.add(1e6 * (after[2] - before[2]) / delivered);
      }
    } while (budget_left(t_begin, opts.seconds, round_s));
    bring_up();

    report.metric("setup_s", mean_of_medians(setup), "s");
    report.metric("rx_pkts_per_s", median_of(rate), "1/s");
    report.metric("cpu_us_per_pkt", median_of(cpu), "us");
    {
      std::string line = "setup batch medians (wall s):";
      for (const auto& b : setup) line += " " + fmt_num(median_of(b));
      report.line(line);
    }
    {
      std::string line = "cpu_us_per_pkt per round:";
      for (double v : cpu.values()) line += " " + fmt_num(v);
      report.line(line);
    }
    for (Protocol p : kBoth)
      latency_lines(report, tag(p), tally[static_cast<int>(p)]);
    const double srm_mean = tally[0].latency_ms.mean();
    report.line("cesrm/srm mean recovery latency " +
                fmt_num(srm_mean > 0 ? tally[1].latency_ms.mean() / srm_mean
                                     : 0.0));
  } else {
    // Traced: one untraced round for the overhead base, then one round
    // with the protocol-event trace on (the causal phase breakdown).
    Tally base[2];
    for (Protocol p : kBoth)
      one_call(gate, base[static_cast<int>(p)], p, opts.seed, kPackets, false,
               spans, group++);
    for (Protocol p : kBoth)
      one_call(gate, tally[static_cast<int>(p)], p, opts.seed, kPackets, true,
               spans, group++);
    double base_cpu = 0, traced_cpu = 0;
    for (Protocol p : kBoth) {
      base_cpu += base[static_cast<int>(p)].usage.cpu_s();
      traced_cpu += tally[static_cast<int>(p)].usage.cpu_s();
      protocol_layer_metrics(report, p, tally[static_cast<int>(p)]);
    }
    report_host_tallies(report, tally[0].host, tally[1].host);
    report.metric("obs.overhead_pct",
                  base_cpu > 0 ? 100.0 * (traced_cpu / base_cpu - 1.0) : 0.0,
                  "%");
    // Wall-clock and datagram counterparts of the paper's simulated-time
    // ratios; they vary from run to run.
    const double srm_mean = tally[0].latency_ms.mean();
    report.metric("netio.latency_vs_srm",
                  srm_mean > 0 ? tally[1].latency_ms.mean() / srm_mean : 0.0,
                  "ratio");
    const auto srm_rec = static_cast<double>(recovery_packets(tally[0].crossings));
    report.metric("netio.recovery_datagrams_vs_srm",
                  srm_rec > 0 ? static_cast<double>(recovery_packets(
                                    tally[1].crossings)) / srm_rec
                              : 0.0,
                  "ratio");

    cesrm::netio::SocketStats s;
    std::array<std::uint64_t, cesrm::net::kPacketTypeCount> mix{};
    std::array<std::uint64_t, cesrm::net::kPacketTypeCount> bytes{};
    for (Protocol p : kBoth) {
      const Tally& t = tally[static_cast<int>(p)];
      s.datagrams_sent += t.sockets.datagrams_sent;
      s.datagrams_received += t.sockets.datagrams_received;
      s.self_filtered += t.sockets.self_filtered;
      s.shim_dropped += t.sockets.shim_dropped;
      s.send_failures += t.sockets.send_failures;
      s.decode_failed += t.sockets.decode_failed;
      for (std::size_t k = 0; k < mix.size(); ++k) {
        mix[k] += t.crossings.total_of(static_cast<cesrm::net::PacketType>(k));
        bytes[k] += t.crossings.wire_bytes[k];
      }
    }
    report.metric("netio.datagrams_sent", static_cast<double>(s.datagrams_sent), "count");
    report.metric("netio.datagrams_received", static_cast<double>(s.datagrams_received), "count");
    report.metric("netio.self_filtered", static_cast<double>(s.self_filtered), "count");
    report.metric("netio.shim_dropped", static_cast<double>(s.shim_dropped), "count");
    report.metric("netio.send_failures", static_cast<double>(s.send_failures), "count");
    report.metric("netio.decode_failed", static_cast<double>(s.decode_failed), "count");
    for (std::size_t k = 0; k < bytes.size(); ++k)
      report.metric(std::string("wire.bytes.") + kPacketTypeKeys[k],
                    static_cast<double>(bytes[k]), "B");

    // Probes, outside every measured call.
    {
      ScopedSpan span(spans, "probe.shim");
      const auto cfg = make_config(Protocol::kCesrm, opts.seed, kPackets);
      const auto tree = cesrm::net::parse_tree(kTree);
      report.metric("netio.shim_ns", probe_shim_ns(tree, cfg.shim), "ns");
    }
    {
      ScopedSpan span(spans, "probe.wire");
      const WireCost w = probe_wire(mix);
      report.metric("wire.encode_ns", w.encode_ns, "ns");
      report.metric("wire.decode_ns", w.decode_ns, "ns");
    }
  }
  const double t_end = now_s();

  if (!opts.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  if (opts.trace) report_spans(spans, t_begin, t_end, opts, report);
  report.correct = gate.correct();
  report.attempted = gate.attempted();
  report.failed = gate.failed();
  for (const auto& m : gate.messages()) report.line(m);
}

}  // namespace perfbench
