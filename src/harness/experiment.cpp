#include "harness/experiment.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "fault/fault_scheduler.hpp"
#include "fault/oracle.hpp"
#include "infer/link_estimator.hpp"
#include "lms/directory.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace cesrm::harness {

std::uint64_t ExperimentResult::total_losses_detected() const {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.losses_detected;
  return n;
}

std::uint64_t ExperimentResult::total_silent_repairs() const {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.repairs_before_detection;
  return n;
}

std::uint64_t ExperimentResult::total_recovered() const {
  std::uint64_t n = 0;
  for (const auto& m : members)
    for (const auto& r : m.stats.recoveries) n += r.recovered ? 1 : 0;
  return n;
}

std::uint64_t ExperimentResult::total_unrecovered() const {
  std::uint64_t n = 0;
  for (const auto& m : members)
    for (const auto& r : m.stats.recoveries) n += r.recovered ? 0 : 1;
  return n;
}

std::uint64_t ExperimentResult::total_requests_sent() const {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.requests_sent;
  return n;
}

std::uint64_t ExperimentResult::total_replies_sent() const {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.replies_sent;
  return n;
}

std::uint64_t ExperimentResult::total_exp_requests_sent() const {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.exp_requests_sent;
  return n;
}

std::uint64_t ExperimentResult::total_exp_replies_sent() const {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.exp_replies_sent;
  return n;
}

double ExperimentResult::mean_normalized_recovery_time() const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& m : members) {
    if (m.is_source || m.rtt_to_source <= 0.0) continue;
    for (const auto& r : m.stats.recoveries) {
      if (!r.recovered) continue;
      sum += r.latency_seconds() / m.rtt_to_source;
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

namespace {

/// CacheSideInfo backed by the synthetic trace: the true injected loss
/// link per (receiver, packet) and the §4.2 inference posterior, both
/// straight from the link trace representation that also drives loss
/// injection — so the oracle policy sees exactly the links that drop.
class LinkTraceSideInfo final : public cesrm::CacheSideInfo {
 public:
  LinkTraceSideInfo(const trace::LossTrace& trace,
                    const infer::LinkTraceRepresentation& links)
      : trace_(trace), links_(links) {
    const auto& receivers = trace.receivers();
    for (std::size_t i = 0; i < receivers.size(); ++i)
      ridx_[receivers[i]] = i;
  }

  double confidence(net::NodeId observer, net::NodeId source,
                    net::SeqNo seq) const override {
    (void)observer;
    if (source != trace_.tree().root() || seq < 0 ||
        seq >= trace_.packet_count())
      return 1.0;  // streams the trace does not describe: fully trusted
    return links_.confidence(seq);
  }

  net::LinkId drop_link(net::NodeId observer, net::NodeId source,
                        net::SeqNo seq) const override {
    if (source != trace_.tree().root() || seq < 0 ||
        seq >= trace_.packet_count())
      return net::kInvalidLink;
    const auto it = ridx_.find(observer);
    if (it == ridx_.end()) return net::kInvalidLink;
    return links_.link_for(it->second, seq);
  }

 private:
  const trace::LossTrace& trace_;
  const infer::LinkTraceRepresentation& links_;
  std::map<net::NodeId, std::size_t> ridx_;  // receiver NodeId → index
};

ExperimentResult run_experiment_impl(
    const trace::LossTrace& loss_trace,
    const infer::LinkTraceRepresentation& links,
    const ExperimentConfig& config) {
  const auto& tree = loss_trace.tree();
  sim::Simulator sim;

  // Observability: the recorder outlives the run (agents emit during
  // stop_session/finalize too) and must attach before any event fires.
  std::optional<obs::TraceRecorder> recorder;
  if (config.observe.enabled()) {
    recorder.emplace(config.observe);
    sim.set_recorder(&*recorder);
  }

  net::Network network(sim, tree, config.network);
  util::Rng rng(config.seed);

  const net::NodeId source = tree.root();

  // Side info for the cache policies that need it. Auto-installed from
  // the trace when the selected policy wants it and the caller did not
  // supply its own; declared before the agents so it outlives them.
  cesrm::CesrmConfig cesrm_cfg = config.cesrm;
  std::optional<LinkTraceSideInfo> side_info;
  if (config.protocol == Protocol::kCesrm &&
      cesrm_cfg.cache.side_info == nullptr &&
      cesrm::cache_policy_needs_side_info(cesrm_cfg.cache.policy)) {
    side_info.emplace(loss_trace, links);
    cesrm_cfg.cache.side_info = &*side_info;
  }

  // LMS's router replier state, shared by every member of an LMS run;
  // declared before the agents so it outlives them.
  std::optional<lms::LmsDirectory> directory;
  if (config.protocol == Protocol::kLms)
    directory.emplace(sim, tree, kLmsRepairDelay);

  Group group(tree, rng, [&](net::NodeId node, util::Rng agent_rng) {
    return make_agent(config.protocol, sim, network, node, source, cesrm_cfg,
                      directory ? &*directory : nullptr, agent_rng);
  });

  // --- durable recovery state --------------------------------------------
  // Mode off constructs nothing: the agents keep their null sinks and the
  // run is byte-identical to a build without the durable subsystem.
  std::optional<durable::Manager> durable_mgr;
  if (config.durable.mode != durable::DurableMode::kOff) {
    durable_mgr.emplace(config.durable);
    for (std::size_t i = 0; i < group.size(); ++i)
      durable_mgr->attach(group.agent(i));
  }

  // --- fault injection ---------------------------------------------------
  // A non-empty plan turns crashes/outages/bursts into simulator events
  // and arms the invariant oracle; an empty plan leaves the run untouched.
  std::optional<fault::FaultScheduler> faults;
  std::optional<fault::InvariantOracle> oracle;
  if (!config.faults.empty()) {
    faults.emplace(sim, network, config.faults, config.seed);
    oracle.emplace(sim, tree);
    for (std::size_t i = 0; i < group.size(); ++i) {
      faults->add_member(group.node(i), &group.agent(i));
      oracle->add_member(group.node(i), &group.agent(i));
    }
    // A crash reaches the durable store (drop the unflushed window, clear
    // volatile state) and LMS's routers (stale until repaired).
    durable::Manager* mgr = durable_mgr ? &*durable_mgr : nullptr;
    lms::LmsDirectory* dir = directory ? &*directory : nullptr;
    faults->set_crash_hooks(
        [mgr, dir](net::NodeId node, srm::SrmAgent& agent) {
          if (mgr) mgr->on_crash(agent);
          if (dir) dir->fail_member(node);
        },
        [mgr](net::NodeId, srm::SrmAgent& agent) {
          if (mgr) mgr->before_recover(agent);
        });
  }

  // --- loss injection ---------------------------------------------------
  // Data packets drop on exactly the links named by the link trace
  // representation (downstream crossings only — data flows down the tree).
  // Recovery packets are lossless unless lossy_recovery is on, in which
  // case each crossing flips a coin with the link's estimated loss rate.
  // Session packets are never dropped (§4.3).
  std::vector<double> recovery_rates;
  if (config.lossy_recovery)
    recovery_rates = infer::estimate_links_yajnik(loss_trace).loss_rate;
  util::Rng drop_rng = rng.fork(0x10551055ULL);

  net::DropFn base_drop = [&](const net::Packet& pkt, net::NodeId from,
                              net::NodeId to) {
    switch (pkt.type) {
      case net::PacketType::kData:
        return links.drops(pkt.seq, from, to);
      case net::PacketType::kSession:
        return false;
      default: {
        if (!config.lossy_recovery) return false;
        const net::LinkId link = tree.parent(to) == from ? to : from;
        return drop_rng.bernoulli(
            recovery_rates[static_cast<std::size_t>(link)]);
      }
    }
  };
  if (faults)
    faults->install(std::move(base_drop));  // layers fault drops on top
  else
    network.set_drop_fn(std::move(base_drop));

  // --- session warm-up ---------------------------------------------------
  group.start_sessions(rng, config.cesrm.srm.session_period);

  // --- data transmission --------------------------------------------------
  // A blocked source (pause clause, or a crashed source) defers the pending
  // packet to the resume time; a crash-stopped source ends the
  // transmission early.
  net::SeqNo packet_count = loss_trace.packet_count();
  if (config.max_packets > 0)
    packet_count = std::min(packet_count, config.max_packets);
  ChainedSource transmission(
      sim, loss_trace.period(), packet_count,
      [&group](net::SeqNo seq) { group.source_agent().send_data(seq); },
      faults ? ChainedSource::Hold(
                   [&faults] { return faults->source_resume_time(); })
             : nullptr);
  transmission.start(kWarmup);

  sim::SimTime horizon =
      kWarmup + loss_trace.period() * static_cast<std::int64_t>(packet_count) +
      config.drain;
  if (!config.faults.empty())
    horizon += config.faults.horizon_slack();
  if (oracle) {
    for (const fault::ResolvedCrash& crash : faults->crashes())
      oracle->note_crash(crash);
    oracle->start(horizon);
  }
  sim.run_until(horizon);
  if (oracle) oracle->finish(transmission.sent(), source);

  // --- collection ---------------------------------------------------------
  ExperimentResult result;
  result.trace_name = loss_trace.name();
  result.protocol = config.protocol;
  result.events_executed = sim.events_executed();
  result.sim_end = sim.now();
  result.packets_sent = transmission.sent();
  result.members = group.collect();
  result.crossings = network.crossings();

  if (recorder) {
    if (config.observe.trace)
      result.events = std::make_shared<const std::vector<obs::TraceEvent>>(
          recorder->take_events());
    if (config.observe.stream) result.sketch = recorder->take_sketch();
    if (config.observe.metrics) {
      obs::MetricsRegistry reg;
      for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        if (const std::uint64_t n = recorder->count(kind))
          reg.add(std::string("events.") + obs::event_kind_name(kind), n);
      }
      reg.add("sim.events_executed", sim.events_executed());
      reg.add("sim.events_scheduled", sim.events_scheduled());
      reg.add("sim.events_cancelled", sim.events_cancelled());
      reg.gauge_max("sim.queue_high_water",
                    static_cast<double>(sim.queue_high_water()));
      reg.add("protocol.losses_detected", result.total_losses_detected());
      reg.add("protocol.silent_repairs", result.total_silent_repairs());
      reg.add("protocol.recovered", result.total_recovered());
      reg.add("protocol.unrecovered", result.total_unrecovered());
      reg.add("protocol.requests_sent", result.total_requests_sent());
      reg.add("protocol.replies_sent", result.total_replies_sent());
      reg.add("protocol.exp_requests_sent", result.total_exp_requests_sent());
      reg.add("protocol.exp_replies_sent", result.total_exp_replies_sent());
      // Cache-policy counters. Only for non-default policies: with the
      // default recency policy every metrics artifact must stay
      // byte-identical to the pre-laboratory output.
      if (config.protocol == Protocol::kCesrm &&
          cesrm_cfg.cache.policy != cesrm::CachePolicyKind::kRecency) {
        cesrm::CacheStats cache_totals;
        for (const auto& m : result.members) {
          cache_totals.hits += m.stats.cache_hits;
          cache_totals.misses += m.stats.cache_misses;
          cache_totals.insertions += m.stats.cache_insertions;
          cache_totals.updates += m.stats.cache_updates;
          cache_totals.evictions += m.stats.cache_evictions;
          cache_totals.rejects += m.stats.cache_rejects;
        }
        reg.add("cache.hits", cache_totals.hits);
        reg.add("cache.misses", cache_totals.misses);
        reg.add("cache.insertions", cache_totals.insertions);
        reg.add("cache.updates", cache_totals.updates);
        reg.add("cache.evictions", cache_totals.evictions);
        reg.add("cache.rejects", cache_totals.rejects);
      }
      // Durable-store counters. Only when durability is on: with the
      // default (off) every metrics artifact stays byte-identical to the
      // pre-durability output.
      if (durable_mgr) {
        const durable::DurableTotals t = durable_mgr->totals();
        reg.add("durable.records_appended", t.records_appended);
        reg.add("durable.bytes_appended", t.bytes_appended);
        reg.add("durable.records_dropped_at_crash",
                t.records_dropped_at_crash);
        reg.add("durable.records_restored", t.records_restored);
        reg.add("durable.records_skipped_invalid", t.records_skipped_invalid);
        reg.add("durable.truncated_scans", t.truncated_scans);
        std::uint64_t suppressed = 0;
        std::uint64_t dup_served = 0;
        for (const auto& m : result.members) {
          suppressed += m.stats.retransmissions_suppressed;
          dup_served += m.stats.duplicate_retransmissions_served;
        }
        reg.add("durable.retransmissions_suppressed", suppressed);
        reg.add("durable.duplicate_retransmissions_served", dup_served);
      }
      util::Histogram& lat =
          reg.histogram("recovery.latency_norm", 0.0, 50.0, 100);
      for (const auto& m : result.members) {
        if (m.is_source || m.rtt_to_source <= 0.0) continue;
        for (const auto& r : m.stats.recoveries)
          if (r.recovered) lat.add(r.latency_seconds() / m.rtt_to_source);
      }
      result.metrics = reg.take();
    }
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const trace::LossTrace& loss_trace,
                                const infer::LinkTraceRepresentation& links,
                                const ExperimentConfig& config) {
  try {
    return run_experiment_impl(loss_trace, links, config);
  } catch (const util::CheckError& e) {
    // One-line reproduction recipe: the tuple below replays the failing
    // run exactly (the violation message itself carries the sim time).
    CESRM_LOG_ERROR << "[cesrm-repro] trace=" << loss_trace.name()
                    << " protocol=" << protocol_name(config.protocol)
                    << " seed=" << config.seed << " packets="
                    << (config.max_packets > 0 ? config.max_packets
                                               : loss_trace.packet_count())
                    << " faults=\"" << config.faults.summary() << "\" — "
                    << e.what();
    throw;
  }
}

}  // namespace cesrm::harness
