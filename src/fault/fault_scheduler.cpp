#include "fault/fault_scheduler.hpp"

#include <utility>

#include "obs/trace_recorder.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace cesrm::fault {

FaultScheduler::FaultScheduler(sim::Simulator& sim, net::Network& network,
                               FaultPlan plan, std::uint64_t seed)
    : sim_(sim),
      net_(network),
      plan_(std::move(plan)),
      rng_(util::Rng(seed).fork(0xFA417u)) {
  plan_.validate();
}

void FaultScheduler::add_member(net::NodeId node, srm::SrmAgent* agent) {
  CESRM_CHECK_MSG(!installed_, "add_member after install");
  CESRM_CHECK(agent != nullptr);
  const bool inserted = members_.emplace(node, agent).second;
  CESRM_CHECK_MSG(inserted, "member registered twice");
}

void FaultScheduler::set_crash_hooks(CrashHook on_crash,
                                     CrashHook before_recover) {
  CESRM_CHECK_MSG(!installed_, "set_crash_hooks after install");
  on_crash_ = std::move(on_crash);
  before_recover_ = std::move(before_recover);
}

void FaultScheduler::install(net::DropFn base_drop) {
  CESRM_CHECK_MSG(!installed_, "install called twice");
  installed_ = true;

  const net::MulticastTree& tree = net_.tree();
  for (const auto& crash : plan_.crashes)
    crashes_.push_back(resolve(crash, tree));
  for (const auto& outage : plan_.outages)
    outages_.push_back(resolve(outage, tree));

  for (const auto& crash : crashes_) {
    const auto it = members_.find(crash.node);
    CESRM_CHECK_MSG(it != members_.end(), "crash targets a non-member node");
    srm::SrmAgent* agent = it->second;
    sim_.schedule_at(crash.at, [this, agent, node = crash.node] {
      if (auto* rec = sim_.recorder())
        rec->emit(sim_.now(), obs::EventKind::kFaultApplied, node,
                  net::kInvalidNode, net::kNoSeq, net::kInvalidNode,
                  obs::kFaultCrash);
      agent->fail();
      if (on_crash_) on_crash_(node, *agent);
    });
    if (crash.recovers()) {
      // Draw the post-recovery session offset now so replay does not
      // depend on how many control packets the chains consumed meanwhile.
      const sim::SimTime offset = sim::SimTime::millis(
          rng_.uniform_int(0, 999));
      sim_.schedule_at(
          crash.recover_at, [this, agent, offset, node = crash.node] {
            if (!agent->failed()) {
              // A recover event can race a crash that never applied (or
              // was undone by an overlapping clause's earlier recovery —
              // plans edited by hand do this). Recovering a live member
              // would abort deep in the agent; log and skip instead. The
              // kFaultApplied emit is skipped too: nothing was applied.
              CESRM_LOG_WARN << "fault plan: recover at "
                             << sim_.now().to_seconds() << "s targets node "
                             << node << " which is already live; skipping";
              return;
            }
            if (auto* rec = sim_.recorder())
              rec->emit(sim_.now(), obs::EventKind::kFaultApplied, node,
                        net::kInvalidNode, net::kNoSeq, net::kInvalidNode,
                        obs::kFaultRecover);
            if (before_recover_) before_recover_(node, *agent);
            agent->recover(offset);
          });
    }
  }

  for (const auto& outage : outages_) {
    net::Network* net = &net_;
    sim_.schedule_at(outage.down_at, [this, net, link = outage.link] {
      if (auto* rec = sim_.recorder())
        rec->emit(sim_.now(), obs::EventKind::kFaultApplied, link,
                  net::kInvalidNode, net::kNoSeq, net::kInvalidNode,
                  obs::kFaultLinkDown);
      net->set_link_up(link, false);
    });
    if (outage.heals())
      sim_.schedule_at(outage.up_at, [this, net, link = outage.link] {
        if (auto* rec = sim_.recorder())
          rec->emit(sim_.now(), obs::EventKind::kFaultApplied, link,
                    net::kInvalidNode, net::kNoSeq, net::kInvalidNode,
                    obs::kFaultLinkUp);
        net->set_link_up(link, true);
      });
  }

  control_chains_.reserve(plan_.control_bursts.size());
  for (const auto& burst : plan_.control_bursts)
    control_chains_.push_back(trace::GilbertElliott::from_rate_and_burst(
        burst.loss_rate, burst.mean_burst));

  if (!plan_.control_bursts.empty()) {
    net_.set_drop_fn([this, base = std::move(base_drop)](
                         const net::Packet& pkt, net::NodeId from,
                         net::NodeId to) {
      if (drop_control(pkt)) return true;
      return base && base(pkt, from, to);
    });
  } else {
    net_.set_drop_fn(std::move(base_drop));
  }

  if (!plan_.perturb_bursts.empty())
    net_.set_perturb_fn([this](const net::Packet& pkt, net::NodeId,
                               net::NodeId) { return perturb(pkt); });
}

bool FaultScheduler::drop_control(const net::Packet& pkt) {
  if (pkt.type == net::PacketType::kData) return false;
  const sim::SimTime now = sim_.now();
  for (std::size_t i = 0; i < plan_.control_bursts.size(); ++i) {
    const ControlLossBurst& burst = plan_.control_bursts[i];
    if (now < burst.from || now >= burst.until) continue;
    if (!burst.include_session && pkt.type == net::PacketType::kSession)
      continue;
    if (control_chains_[i].step(rng_)) return true;
  }
  return false;
}

net::Perturbation FaultScheduler::perturb(const net::Packet& pkt) {
  (void)pkt;
  net::Perturbation p;
  const sim::SimTime now = sim_.now();
  for (const PerturbBurst& burst : plan_.perturb_bursts) {
    if (now < burst.from || now >= burst.until) continue;
    if (burst.dup_probability > 0.0 && rng_.bernoulli(burst.dup_probability))
      p.duplicate = true;
    if (burst.max_extra_delay > sim::SimTime::zero())
      p.extra_delay += sim::SimTime::from_seconds(
          rng_.uniform(0.0, burst.max_extra_delay.to_seconds()));
  }
  return p;
}

sim::SimTime FaultScheduler::source_resume_time() const {
  const sim::SimTime now = sim_.now();
  sim::SimTime resume = now;
  for (const SourcePause& pause : plan_.pauses)
    if (now >= pause.at && now < pause.until && pause.until > resume)
      resume = pause.until;
  const net::NodeId root = net_.tree().root();
  for (const ResolvedCrash& crash : crashes_)
    if (crash.node == root && now >= crash.at && now < crash.recover_at &&
        crash.recover_at > resume)
      resume = crash.recover_at;
  return resume;
}

}  // namespace cesrm::fault
