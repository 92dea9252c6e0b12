#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace cesrm::fault {
namespace {

void check_interval(sim::SimTime from, sim::SimTime until, const char* what) {
  CESRM_CHECK_MSG(from >= sim::SimTime::zero(), what);
  CESRM_CHECK_MSG(until > from, what);
}

/// Renders a time as fractional seconds, e.g. "12.5s" / "inf".
std::string fmt_time(sim::SimTime t) {
  if (t >= sim::SimTime::infinity()) return "inf";
  std::ostringstream os;
  os << t.to_seconds() << "s";
  return os.str();
}

std::string fmt_rank(int rank) {
  if (rank == kSourceRank) return "src";
  // Appending, not "r" + to_string: GCC 12 reports a false -Wrestrict
  // overlap inside char_traits for the prepend.
  std::string out = "r";
  out += std::to_string(rank);
  return out;
}

}  // namespace

void FaultPlan::validate() const {
  for (const auto& c : crashes) {
    CESRM_CHECK_MSG(c.receiver_rank >= kSourceRank, "crash rank out of range");
    CESRM_CHECK_MSG(c.at >= sim::SimTime::zero(), "crash time negative");
    CESRM_CHECK_MSG(c.recover_at > c.at, "recovery precedes crash");
  }
  for (const auto& o : outages) {
    CESRM_CHECK_MSG(o.receiver_rank >= 0, "outage rank out of range");
    CESRM_CHECK_MSG(o.height >= 0, "outage height negative");
    check_interval(o.down_at, o.up_at, "outage interval inverted");
  }
  for (const auto& b : control_bursts) {
    check_interval(b.from, b.until, "control-loss interval inverted");
    CESRM_CHECK_MSG(b.loss_rate >= 0.0 && b.loss_rate < 1.0,
                    "control-loss rate outside [0,1)");
    CESRM_CHECK_MSG(b.mean_burst >= 1.0, "control-loss burst < 1");
  }
  for (const auto& p : pauses)
    check_interval(p.at, p.until, "source-pause interval inverted");
  for (const auto& b : perturb_bursts) {
    check_interval(b.from, b.until, "perturb interval inverted");
    CESRM_CHECK_MSG(b.dup_probability >= 0.0 && b.dup_probability <= 1.0,
                    "duplication probability outside [0,1]");
    CESRM_CHECK_MSG(b.max_extra_delay >= sim::SimTime::zero(),
                    "negative delay jitter");
  }
}

sim::SimTime FaultPlan::horizon_slack() const {
  sim::SimTime slack = sim::SimTime::zero();
  // Deferred transmissions replay after the pause ends, one period apart —
  // the tail shifts by the pause length. A crashed-then-recovered source
  // behaves the same way.
  for (const auto& p : pauses) slack += p.until - p.at;
  for (const auto& c : crashes)
    if (c.recovers()) {
      if (c.receiver_rank == kSourceRank) slack += c.recover_at - c.at;
      // A recovered receiver re-detects everything it missed at once; its
      // catch-up is bounded by the normal recovery machinery, give it the
      // downtime again as settling room.
      slack += c.recover_at - c.at;
    }
  // A healed partition leaves request timers backed off by up to the
  // outage length; the next request fires at most one more doubling out.
  for (const auto& o : outages)
    if (o.heals()) slack += (o.up_at - o.down_at) + (o.up_at - o.down_at);
  // Recoveries suppressed by a control-loss burst retry right after it.
  for (const auto& b : control_bursts) slack += b.until - b.from;
  return slack;
}

std::string FaultPlan::summary() const {
  if (empty()) return "none";
  std::ostringstream os;
  const char* sep = "";
  for (const auto& c : crashes) {
    os << sep << "crash[" << fmt_rank(c.receiver_rank) << "@"
       << fmt_time(c.at);
    if (c.recovers()) os << "-" << fmt_time(c.recover_at);
    os << "]";
    sep = " ";
  }
  for (const auto& o : outages) {
    os << sep << "outage[" << fmt_rank(o.receiver_rank) << "^" << o.height
       << "@" << fmt_time(o.down_at) << "-" << fmt_time(o.up_at) << "]";
    sep = " ";
  }
  for (const auto& b : control_bursts) {
    os << sep << "ctrl-loss[" << fmt_time(b.from) << "-" << fmt_time(b.until)
       << "," << b.loss_rate << "x" << b.mean_burst
       << (b.include_session ? "" : ",no-session") << "]";
    sep = " ";
  }
  for (const auto& p : pauses) {
    os << sep << "pause[" << fmt_time(p.at) << "-" << fmt_time(p.until)
       << "]";
    sep = " ";
  }
  for (const auto& b : perturb_bursts) {
    os << sep << "perturb[" << fmt_time(b.from) << "-" << fmt_time(b.until)
       << ",dup=" << b.dup_probability
       << ",jitter<=" << fmt_time(b.max_extra_delay) << "]";
    sep = " ";
  }
  return os.str();
}

net::NodeId resolve_rank(int receiver_rank, const net::MulticastTree& tree) {
  if (receiver_rank == kSourceRank) return tree.root();
  const auto& receivers = tree.receivers();
  CESRM_CHECK_MSG(receiver_rank >= 0 &&
                      static_cast<std::size_t>(receiver_rank) <
                          receivers.size(),
                  "receiver rank exceeds tree");
  return receivers[static_cast<std::size_t>(receiver_rank)];
}

ResolvedCrash resolve(const CrashEvent& crash, const net::MulticastTree& tree) {
  return ResolvedCrash{resolve_rank(crash.receiver_rank, tree), crash.at,
                       crash.recover_at};
}

ResolvedOutage resolve(const LinkOutage& outage,
                       const net::MulticastTree& tree) {
  net::NodeId node = resolve_rank(outage.receiver_rank, tree);
  CESRM_CHECK_MSG(!tree.is_root(node), "cannot sever the root");
  // Climb `height` levels, stopping below the root so the cut edge always
  // exists. The link is identified by its child endpoint.
  for (int i = 0; i < outage.height && !tree.is_root(tree.parent(node)); ++i)
    node = tree.parent(node);
  return ResolvedOutage{node, outage.down_at, outage.up_at};
}

namespace {

/// Time at fraction `f` of the context's data window.
sim::SimTime at_fraction(const ScenarioContext& ctx, double f) {
  return ctx.data_start + (ctx.data_end - ctx.data_start) * f;
}

/// Share of the receivers replier_crash_plan crash-stops.
constexpr double kReplierCrashFraction = 0.3;

void check_ctx(const ScenarioContext& ctx) {
  CESRM_CHECK_MSG(ctx.receivers > 0, "scenario needs receivers");
  CESRM_CHECK_MSG(ctx.data_end > ctx.data_start, "empty data window");
}

}  // namespace

FaultPlan replier_crash_plan(const ScenarioContext& ctx) {
  check_ctx(ctx);
  const int crashed = std::min(
      ctx.receivers - 1,
      static_cast<int>(std::ceil(static_cast<double>(ctx.receivers) *
                                 kReplierCrashFraction)));
  const sim::SimTime when = at_fraction(ctx, 0.5);
  FaultPlan plan;
  for (int i = 0; i < crashed; ++i)
    plan.crashes.push_back(CrashEvent{ctx.receivers - 1 - i, when});
  return plan;
}

FaultPlan subtree_partition_plan(const ScenarioContext& ctx) {
  check_ctx(ctx);
  FaultPlan plan;
  plan.outages.push_back(
      LinkOutage{0, 1, at_fraction(ctx, 0.30), at_fraction(ctx, 0.45)});
  return plan;
}

FaultPlan source_pause_plan(const ScenarioContext& ctx) {
  check_ctx(ctx);
  FaultPlan plan;
  plan.pauses.push_back(
      SourcePause{at_fraction(ctx, 0.45), at_fraction(ctx, 0.60)});
  return plan;
}

FaultPlan control_loss_plan(const ScenarioContext& ctx) {
  check_ctx(ctx);
  FaultPlan plan;
  ControlLossBurst burst;
  burst.from = at_fraction(ctx, 0.30);
  burst.until = at_fraction(ctx, 0.70);
  burst.loss_rate = 0.25;
  burst.mean_burst = 4.0;
  plan.control_bursts.push_back(burst);
  return plan;
}

FaultPlan crash_recover_plan(const ScenarioContext& ctx) {
  check_ctx(ctx);
  const int crashed =
      std::min(ctx.receivers - 1, (ctx.receivers + 2) / 3);
  const sim::SimTime down = at_fraction(ctx, 0.40);
  const sim::SimTime up = at_fraction(ctx, 0.70);
  FaultPlan plan;
  for (int i = 0; i < crashed; ++i)
    plan.crashes.push_back(CrashEvent{ctx.receivers - 1 - i, down, up});
  return plan;
}

FaultPlan duplication_jitter_plan(const ScenarioContext& ctx) {
  check_ctx(ctx);
  FaultPlan plan;
  PerturbBurst burst;
  burst.from = at_fraction(ctx, 0.25);
  burst.until = at_fraction(ctx, 0.75);
  burst.dup_probability = 0.05;
  burst.max_extra_delay = sim::SimTime::millis(15);
  plan.perturb_bursts.push_back(burst);
  return plan;
}

std::vector<NamedPlan> shipped_scenarios(const ScenarioContext& ctx) {
  return {
      {"replier-crash", replier_crash_plan(ctx)},
      {"partition-heal", subtree_partition_plan(ctx)},
      {"source-pause", source_pause_plan(ctx)},
      {"control-loss", control_loss_plan(ctx)},
      {"crash-recover", crash_recover_plan(ctx)},
      {"dup-jitter", duplication_jitter_plan(ctx)},
  };
}

}  // namespace cesrm::fault
