#include "trace/trace_generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "net/topology_builder.hpp"
#include "trace/gilbert_elliott.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace cesrm::trace {

namespace {

// The synthetic loss processes: MBone-like bursty, spatially
// heterogeneous losses.
constexpr double kMinBaseRate = 0.002;   ///< log-uniform base rate bounds
constexpr double kMaxBaseRate = 0.05;
constexpr double kHotLinkFraction = 0.2; ///< links boosted ×kHotBoost
constexpr double kHotBoost = 4.0;
constexpr double kMinBurst = 1.5;        ///< mean burst length bounds
constexpr double kMaxBurst = 8.0;
constexpr double kLossTolerance = 0.02;  ///< relative calibration tolerance
constexpr int kMaxCalibrationIters = 40;
constexpr int kMaxBranching = 4;         ///< tree bushiness cap

/// Everything fixed once per spec: tree, per-link base parameters, and the
/// per-link RNG seeds (identical across calibration iterations so that the
/// loss count is a stable function of the multiplier).
struct Blueprint {
  std::shared_ptr<const net::MulticastTree> tree;
  std::vector<double> base_rate;   // by LinkId (child node id)
  std::vector<double> mean_burst;  // by LinkId
  std::vector<std::uint64_t> link_seed;
  std::vector<net::NodeId> bfs_order;  // parents before children
};

Blueprint make_blueprint(const TraceSpec& spec, util::Rng& rng) {
  Blueprint bp;
  net::TreeShape shape;
  shape.receivers = spec.receivers;
  shape.depth = spec.depth;
  shape.max_branching = kMaxBranching;
  bp.tree = std::make_shared<net::MulticastTree>(
      net::build_random_tree(shape, rng));

  const auto n = bp.tree->size();
  bp.base_rate.assign(n, 0.0);
  bp.mean_burst.assign(n, 1.0);
  bp.link_seed.assign(n, 0);
  const double ln_lo = std::log(kMinBaseRate);
  const double ln_hi = std::log(kMaxBaseRate);
  for (net::LinkId l : bp.tree->links()) {
    const auto li = static_cast<std::size_t>(l);
    bp.base_rate[li] = std::exp(rng.uniform(ln_lo, ln_hi));
    if (rng.bernoulli(kHotLinkFraction))
      bp.base_rate[li] *= kHotBoost;
    bp.mean_burst[li] = rng.uniform(kMinBurst, kMaxBurst);
    bp.link_seed[li] = rng.next_u64();
  }

  // BFS node order guarantees parents precede children when propagating
  // reachability down the tree.
  bp.bfs_order.push_back(bp.tree->root());
  for (std::size_t i = 0; i < bp.bfs_order.size(); ++i)
    for (net::NodeId c : bp.tree->children(bp.bfs_order[i]))
      bp.bfs_order.push_back(c);
  return bp;
}

/// One run of the loss processes at rate multiplier `mu`. Row v of
/// `unreached` (words_per_row 64-bit words) has bit i set iff packet i
/// failed to reach node v; the root's row is all clear.
struct Pass {
  double mu = 0.0;
  std::uint64_t losses = 0;  ///< set bits over the receivers' rows
  std::size_t words_per_row = 0;
  std::vector<std::uint64_t> unreached;

  const std::uint64_t* row(net::NodeId v) const {
    return unreached.data() + static_cast<std::size_t>(v) * words_per_row;
  }
};

double link_rate(const Blueprint& bp, double mu, std::size_t link) {
  return std::min(0.95, mu * bp.base_rate[link]);
}

/// Runs the loss processes link-major: each link's chain runs alone over
/// the whole transmission (its draws come from its own seed only), and a
/// node's row is its parent's row OR its own link's BAD slots, built in
/// BFS order so every parent row is complete first.
Pass run_processes(const TraceSpec& spec, const Blueprint& bp, double mu) {
  const auto& tree = *bp.tree;
  const auto packets = static_cast<std::size_t>(spec.packets);
  Pass pass;
  pass.mu = mu;
  pass.words_per_row = (packets + 63) / 64;
  pass.unreached.assign(tree.size() * pass.words_per_row, 0);
  for (std::size_t oi = 1; oi < bp.bfs_order.size(); ++oi) {
    const net::NodeId v = bp.bfs_order[oi];
    const auto vi = static_cast<std::size_t>(v);
    auto chain = GilbertElliott::from_rate_and_burst(link_rate(bp, mu, vi),
                                                     bp.mean_burst[vi]);
    util::Rng rng(bp.link_seed[vi]);
    const std::uint64_t* above = pass.row(tree.parent(v));
    std::uint64_t* self = pass.unreached.data() + vi * pass.words_per_row;
    for (std::size_t w = 0; w < pass.words_per_row; ++w) {
      const std::size_t slots = std::min<std::size_t>(64, packets - 64 * w);
      std::uint64_t bad = 0;
      for (std::size_t b = 0; b < slots; ++b)
        bad |= static_cast<std::uint64_t>(chain.step(rng)) << b;
      self[w] = above[w] | bad;
    }
  }
  for (net::NodeId r : tree.receivers()) {
    const std::uint64_t* lost = pass.row(r);
    for (std::size_t w = 0; w < pass.words_per_row; ++w)
      pass.losses += static_cast<std::uint64_t>(std::popcount(lost[w]));
  }
  return pass;
}

/// Fills the LossTrace and the ground-truth drop links from `pass`'s rows.
GeneratedTrace emit_trace(const TraceSpec& spec, const Blueprint& bp,
                          const Pass& pass) {
  const auto& tree = *bp.tree;
  GeneratedTrace out;
  out.loss = std::make_shared<LossTrace>(
      spec.name, bp.tree, sim::SimTime::millis(spec.period_ms), spec.packets);
  const auto for_each_bit = [](std::uint64_t word, std::size_t w, auto&& fn) {
    for (; word != 0; word &= word - 1)
      fn(static_cast<net::SeqNo>(64 * w) + std::countr_zero(word));
  };
  const auto& receivers = tree.receivers();
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    const std::uint64_t* lost = pass.row(receivers[r]);
    for (std::size_t w = 0; w < pass.words_per_row; ++w)
      for_each_bit(lost[w], w, [&](net::SeqNo i) { out.loss->set_lost(r, i); });
  }
  // Link v dropped packet i iff i reached v's parent but not v. Packets
  // are closed in seq order, each with its links in BFS order.
  const auto drop_word = [&](std::size_t oi, std::size_t w) {
    const net::NodeId v = bp.bfs_order[oi];
    return pass.row(v)[w] & ~pass.row(tree.parent(v))[w];
  };
  std::size_t drops = 0;
  for (std::size_t oi = 1; oi < bp.bfs_order.size(); ++oi)
    for (std::size_t w = 0; w < pass.words_per_row; ++w)
      drops += static_cast<std::size_t>(std::popcount(drop_word(oi, w)));
  const auto packets = static_cast<std::size_t>(spec.packets);
  out.true_drop_links.reserve(packets, drops);
  std::vector<std::uint64_t> word(bp.bfs_order.size(), 0);
  for (std::size_t w = 0; w < pass.words_per_row; ++w) {
    std::uint64_t any = 0;
    for (std::size_t oi = 1; oi < bp.bfs_order.size(); ++oi)
      any |= word[oi] = drop_word(oi, w);
    const std::size_t slots = std::min<std::size_t>(64, packets - 64 * w);
    for (std::size_t b = 0; b < slots; ++b) {
      if ((any >> b) & 1u)
        for (std::size_t oi = 1; oi < bp.bfs_order.size(); ++oi)
          if ((word[oi] >> b) & 1u)
            out.true_drop_links.add_link(bp.bfs_order[oi]);
      out.true_drop_links.end_packet();
    }
  }
  for (std::size_t v = 0; v < tree.size(); ++v)
    out.link_loss_rate.push_back(link_rate(bp, pass.mu, v));
  out.link_mean_burst = bp.mean_burst;
  out.rate_multiplier = pass.mu;
  return out;
}

}  // namespace

GeneratedTrace generate_trace(const TraceSpec& spec) {
  CESRM_CHECK(spec.packets > 0);
  CESRM_CHECK(spec.receivers >= 1);
  util::Rng rng(spec.seed);
  const Blueprint bp = make_blueprint(spec, rng);

  const auto target = static_cast<double>(spec.losses);
  const auto below = [&](const Pass& p) {
    return static_cast<double>(p.losses) < target;
  };
  const auto error = [&](const Pass& p) {
    return std::abs(static_cast<double>(p.losses) - target);
  };

  // Bracket the multiplier: losses(mu) is (statistically) increasing.
  Pass hi = run_processes(spec, bp, 1.0);
  Pass lo = hi;
  int iters = 1;
  while (below(hi) && hi.mu < 4096.0) {
    lo = std::move(hi);
    hi = run_processes(spec, bp, 2.0 * lo.mu);
    ++iters;
  }
  // lo's pass is already in hand (the bracket's last step, or hi itself
  // if the bracket never moved). Evaluating it still counts as a
  // calibration step.
  ++iters;
  while (static_cast<double>(lo.losses) > target && lo.mu > 1.0 / 4096.0) {
    hi = std::move(lo);
    lo = run_processes(spec, bp, hi.mu / 2.0);
    ++iters;
  }

  // Bisect, keeping the pass closest to the target (the earlier one on a
  // tie); its rows become the trace, so no multiplier runs twice.
  double mu_lo = lo.mu;
  double mu_hi = hi.mu;
  Pass best = std::move(hi);
  if (error(lo) < error(best)) best = std::move(lo);
  while (iters < kMaxCalibrationIters &&
         error(best) / target > kLossTolerance) {
    const double mid = 0.5 * (mu_lo + mu_hi);
    Pass pass = run_processes(spec, bp, mid);
    ++iters;
    if (below(pass))
      mu_lo = mid;
    else
      mu_hi = mid;
    if (error(pass) < error(best)) best = std::move(pass);
    if (mu_hi - mu_lo < 1e-9) break;
  }

  GeneratedTrace out = emit_trace(spec, bp, best);
  out.calibration_iters = iters;
  CESRM_LOG_INFO << "trace " << spec.name << ": target=" << spec.losses
                 << " generated=" << best.losses << " mu=" << best.mu
                 << " iters=" << iters;
  return out;
}

}  // namespace cesrm::trace
