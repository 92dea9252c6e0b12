// Property-based suites (parameterized gtest): invariants that must hold
// across randomized topologies, loss processes, patterns, and experiment
// configurations — not just on hand-picked examples.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "net/network.hpp"
#include "harness/experiment.hpp"
#include "harness/group.hpp"
#include "harness/reports.hpp"
#include "infer/combination_solver.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "lms/lms_agent.hpp"
#include "net/topology_builder.hpp"
#include "trace/gilbert_elliott.hpp"
#include "trace/trace_generator.hpp"

namespace cesrm {
namespace {

// ---------------------------------------------------- random tree shapes ----

class TreeShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TreeShapeProperty, StructuralInvariants) {
  const auto [receivers, depth, seed] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  net::TreeShape shape;
  shape.receivers = receivers;
  shape.depth = depth;
  const auto tree = net::build_random_tree(shape, rng);

  // Shape honored exactly.
  ASSERT_EQ(static_cast<int>(tree.receivers().size()), receivers);
  ASSERT_EQ(tree.max_depth(), depth);
  // Every internal node leads to at least one receiver.
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(tree.size()); ++v) {
    if (!tree.is_leaf(v)) {
      EXPECT_FALSE(tree.subtree_receivers(v).empty()) << "node " << v;
    }
    if (!tree.is_root(v)) {
      EXPECT_EQ(tree.depth(v), tree.depth(tree.parent(v)) + 1);
      EXPECT_LE(tree.depth(v), depth);
    }
  }
  // Path and LCA are mutually consistent for every receiver pair.
  for (net::NodeId a : tree.receivers()) {
    for (net::NodeId b : tree.receivers()) {
      const auto path = tree.path(a, b);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, tree.hop_distance(a, b));
      const net::NodeId meet = tree.lca(a, b);
      EXPECT_TRUE(tree.is_ancestor(meet, a));
      EXPECT_TRUE(tree.is_ancestor(meet, b));
      // The LCA lies on the path.
      EXPECT_NE(std::find(path.begin(), path.end(), meet), path.end());
    }
  }
  // Round trip through the text format.
  EXPECT_EQ(net::parse_tree(tree.to_string()).to_string(), tree.to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeShapeProperty,
    ::testing::Combine(::testing::Values(2, 5, 9, 15),
                       ::testing::Values(2, 4, 7),
                       ::testing::Values(1, 2, 3)));

// -------------------------------------------- Gilbert–Elliott parameters ----

class GilbertElliottProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GilbertElliottProperty, EmpiricalMomentsMatchParameters) {
  const auto [rate, burst] = GetParam();
  auto ge = trace::GilbertElliott::from_rate_and_burst(rate, burst);
  util::Rng rng(static_cast<std::uint64_t>(rate * 1e6 + burst * 1000));
  const int n = 300000;
  int losses = 0, bursts = 0;
  bool in_burst = false;
  for (int i = 0; i < n; ++i) {
    if (ge.step(rng)) {
      ++losses;
      if (!in_burst) ++bursts;
      in_burst = true;
    } else {
      in_burst = false;
    }
  }
  EXPECT_NEAR(static_cast<double>(losses) / n, rate, 0.15 * rate + 0.002);
  if (bursts > 100) {
    EXPECT_NEAR(static_cast<double>(losses) / bursts, burst,
                0.15 * burst + 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, GilbertElliottProperty,
    ::testing::Combine(::testing::Values(0.01, 0.05, 0.15),
                       ::testing::Values(1.5, 3.0, 8.0)));

// --------------------------------------- combination solver exhaustively ----

class SolverProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolverProperty, AllPatternsExplainedExactly) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  net::TreeShape shape;
  shape.receivers = 6;
  shape.depth = 4;
  const auto tree = net::build_random_tree(shape, rng);
  std::vector<double> rates(tree.size(), 0.0);
  for (net::LinkId l : tree.links())
    rates[static_cast<std::size_t>(l)] = rng.uniform(0.005, 0.4);
  infer::CombinationSolver solver(tree, rates, tree.receivers());

  const auto all =
      static_cast<trace::LossPattern>((1u << tree.receivers().size()) - 1);
  for (trace::LossPattern x = 1; x <= all; ++x) {
    const auto& res = solver.solve(x);
    // (a) The selected cut set reproduces the pattern exactly.
    trace::LossPattern implied = 0;
    for (std::size_t r = 0; r < tree.receivers().size(); ++r)
      for (net::LinkId l : res.links)
        if (tree.is_ancestor(l, tree.receivers()[r]))
          implied |= trace::LossPattern{1} << r;
    ASSERT_EQ(implied, x);
    // (b) It is an antichain.
    for (net::LinkId a : res.links)
      for (net::LinkId b : res.links)
        if (a != b) {
          ASSERT_FALSE(tree.is_ancestor(a, b));
        }
    // (c) Probabilities are sane: 0 < p(c) and p(c) ≤ Σ p(c') ⇒
    //     confidence ∈ (0, 1].
    ASSERT_GT(res.probability, 0.0);
    ASSERT_GT(res.confidence, 0.0);
    ASSERT_LE(res.confidence, 1.0 + 1e-12);
    // (d) Every lost receiver maps to exactly one responsible link.
    for (std::size_t r = 0; r < tree.receivers().size(); ++r) {
      const net::LinkId l = solver.link_for(x, r);
      if (x & (trace::LossPattern{1} << r)) {
        ASSERT_NE(l, net::kInvalidLink);
      } else {
        ASSERT_EQ(l, net::kInvalidLink);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty, ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------------- generation → inference round ----

class InferenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(InferenceProperty, LinkTraceReproducesLossesExactly) {
  const int seed = GetParam();
  trace::TraceSpec spec;
  spec.name = "PROP";
  spec.receivers = 4 + seed % 8;
  spec.depth = 2 + seed % 4;
  spec.period_ms = 40;
  spec.packets = 4000;
  spec.losses = 4000 * spec.receivers / 25;
  spec.seed = static_cast<std::uint64_t>(1000 + seed);
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  const auto& tree = gen.loss->tree();
  // Replaying the inferred drop links yields the original loss matrix —
  // the property §4.3's simulation methodology depends on.
  for (net::SeqNo i = 0; i < spec.packets; ++i) {
    const auto& drops = links.drop_links(i);
    for (std::size_t r = 0; r < gen.loss->receiver_count(); ++r) {
      bool covered = false;
      for (net::LinkId l : drops)
        covered |= tree.is_ancestor(l, gen.loss->receiver_node(r));
      ASSERT_EQ(covered, gen.loss->lost(r, i))
          << "seed " << seed << " seq " << i << " receiver " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------- network delivery invariants ----

class NetworkProperty : public ::testing::TestWithParam<int> {};

TEST_P(NetworkProperty, FloodUnicastSubcastInvariants) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 71);
  net::TreeShape shape;
  shape.receivers = 4 + seed % 10;
  shape.depth = 2 + seed % 5;
  const auto tree = net::build_random_tree(shape, rng);

  sim::Simulator sim;
  net::Network network(sim, tree, {});

  struct CountingAgent : net::Agent {
    int count = 0;
    void on_packet(const net::Packet&) override { ++count; }
  };
  std::map<net::NodeId, CountingAgent> agents;
  std::vector<net::NodeId> members{tree.root()};
  for (net::NodeId r : tree.receivers()) members.push_back(r);
  for (net::NodeId m : members) network.attach(m, &agents[m]);

  // (a) A multicast from every member reaches every other member exactly
  //     once and crosses every link exactly once.
  for (net::NodeId m : members) {
    network.reset_crossings();
    for (auto& [n, a] : agents) a.count = 0;
    network.multicast(m, net::make_data_packet(tree.root(), 1));
    sim.run();
    for (const auto& [n, a] : agents)
      ASSERT_EQ(a.count, n == m ? 0 : 1) << "flood from " << m << " at " << n;
    ASSERT_EQ(network.crossings().multicast_of(net::PacketType::kData),
              tree.link_count());
  }

  // (b) A unicast between any two members reaches exactly the destination
  //     and crosses exactly hop_distance links.
  for (net::NodeId a : members) {
    for (net::NodeId b : members) {
      if (a == b) continue;
      network.reset_crossings();
      for (auto& [n, ag] : agents) ag.count = 0;
      net::RecoveryAnnotation ann;
      network.unicast(a, net::make_exp_request_packet(a, b, tree.root(), 1,
                                                      ann));
      sim.run();
      for (const auto& [n, ag] : agents)
        ASSERT_EQ(ag.count, n == b ? 1 : 0);
      ASSERT_EQ(network.crossings().unicast_of(net::PacketType::kExpRequest),
                static_cast<std::uint64_t>(tree.hop_distance(a, b)));
    }
  }

  // (c) A subcast from any internal node reaches exactly the members in
  //     its subtree (sender outside that subtree).
  for (net::NodeId router = 0;
       router < static_cast<net::NodeId>(tree.size()); ++router) {
    if (tree.is_leaf(router)) continue;
    for (auto& [n, ag] : agents) ag.count = 0;
    net::RecoveryAnnotation ann;
    // Use the root as sender unless it is inside the subtree; the root is
    // inside only when router == root, where "subtree" is everyone.
    const net::NodeId sender = tree.root();
    network.unicast_subcast(sender, router,
                            net::make_exp_reply_packet(sender, tree.root(),
                                                       1, ann));
    sim.run();
    const auto& covered = tree.subtree_receivers(router);
    for (const auto& [n, ag] : agents) {
      if (n == sender) {
        ASSERT_EQ(ag.count, 0);
        continue;
      }
      const bool in_subtree =
          std::find(covered.begin(), covered.end(), n) != covered.end();
      ASSERT_EQ(ag.count, in_subtree ? 1 : 0)
          << "router " << router << " member " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------------- experiment sweeps ----

struct SweepCase {
  int receivers;
  int depth;
  int period_ms;
  double loss_rate;
  std::uint64_t seed;
};

class ExperimentProperty : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExperimentProperty, ProtocolInvariantsHold) {
  const SweepCase& c = GetParam();
  trace::TraceSpec spec;
  spec.name = "SWEEP";
  spec.receivers = c.receivers;
  spec.depth = c.depth;
  spec.period_ms = c.period_ms;
  spec.packets = 3000;
  spec.losses = static_cast<std::int64_t>(3000.0 * c.receivers * c.loss_rate);
  spec.seed = c.seed;
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);

  harness::ExperimentConfig cfg;
  cfg.seed = c.seed;
  cfg.protocol = Protocol::kSrm;
  const auto srm = harness::run_experiment(*gen.loss, links, cfg);
  cfg.protocol = Protocol::kCesrm;
  const auto cesrm = harness::run_experiment(*gen.loss, links, cfg);

  // Completeness: every injected loss is either detected or repaired
  // before detection, under both protocols, for every sweep point.
  EXPECT_EQ(srm.total_losses_detected() + srm.total_silent_repairs(),
            gen.loss->total_losses());
  EXPECT_EQ(cesrm.total_losses_detected() + cesrm.total_silent_repairs(),
            gen.loss->total_losses());
  EXPECT_EQ(srm.total_unrecovered(), 0u);
  EXPECT_EQ(cesrm.total_unrecovered(), 0u);
  // CESRM never does worse on mean latency (it falls back on SRM).
  EXPECT_LE(cesrm.mean_normalized_recovery_time(),
            srm.mean_normalized_recovery_time() * 1.05);
  // SRM never sends expedited traffic; CESRM's expedited replies never
  // exceed its expedited requests.
  EXPECT_EQ(srm.total_exp_requests_sent(), 0u);
  EXPECT_LE(cesrm.total_exp_replies_sent(), cesrm.total_exp_requests_sent());
  // Retransmission volume: CESRM ≤ SRM (the paper's Figure 4/5 claim).
  EXPECT_LE(cesrm.total_replies_sent() + cesrm.total_exp_replies_sent(),
            srm.total_replies_sent() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExperimentProperty,
    ::testing::Values(SweepCase{4, 2, 40, 0.03, 11},
                      SweepCase{8, 4, 80, 0.05, 12},
                      SweepCase{12, 6, 80, 0.04, 13},
                      SweepCase{15, 7, 40, 0.03, 14},
                      SweepCase{6, 3, 80, 0.09, 15},
                      SweepCase{10, 5, 40, 0.07, 16}));

// --------------------------------------------------------- LMS baseline ----

class LmsProperty : public ::testing::TestWithParam<int> {};

TEST_P(LmsProperty, RecoversEveryLossOnRandomWorkloads) {
  const int seed = GetParam();
  trace::TraceSpec spec;
  spec.name = "LMSPROP";
  spec.receivers = 5 + seed % 7;
  spec.depth = 3 + seed % 3;
  spec.period_ms = 80;
  spec.packets = 2500;
  spec.losses = 2500 * spec.receivers / 20;
  spec.seed = static_cast<std::uint64_t>(3000 + seed);
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);

  const auto& tree = gen.loss->tree();
  sim::Simulator sim;
  net::Network network(sim, tree, {});
  lms::LmsDirectory directory(sim, tree, sim::SimTime::seconds(10));
  lms::LmsConfig cfg;
  util::Rng rng(spec.seed);
  harness::Group group(tree, rng, [&](net::NodeId node, util::Rng agent_rng) {
    return std::make_unique<lms::LmsAgent>(sim, network, node, tree.root(),
                                           cfg, directory, agent_rng);
  });
  network.set_drop_fn([&](const net::Packet& pkt, net::NodeId from,
                          net::NodeId to) {
    if (pkt.type != net::PacketType::kData) return false;
    if (tree.parent(to) != from) return false;
    const auto& drops = links.drop_links(pkt.seq);
    return std::binary_search(drops.begin(), drops.end(), to);
  });
  group.start_sessions(rng, cfg.srm.session_period);
  const sim::SimTime warmup = sim::SimTime::seconds(5);
  harness::ChainedSource transmission(
      sim, gen.loss->period(), spec.packets,
      [&group](net::SeqNo seq) { group.source_agent().send_data(seq); });
  transmission.start(warmup);
  sim.run_until(warmup + gen.loss->period() * spec.packets +
                sim::SimTime::seconds(60));

  // Completeness: every member holds every packet; no SRM recovery
  // traffic was ever multicast (LMS replaces it entirely).
  std::uint64_t losses_accounted = 0;
  for (std::size_t m = 0; m < group.size(); ++m) {
    srm::SrmAgent& agent = group.agent(m);
    agent.stop_session();
    if (agent.node() == tree.root()) continue;
    EXPECT_EQ(agent.outstanding_losses(), 0u) << "node " << agent.node();
    for (net::SeqNo i = 0; i < spec.packets; ++i)
      ASSERT_TRUE(agent.has_packet(tree.root(), i))
          << "node " << agent.node() << " seq " << i;
    EXPECT_EQ(agent.stats().requests_sent, 0u);
    EXPECT_EQ(agent.stats().replies_sent, 0u);
    losses_accounted += agent.stats().losses_detected +
                        agent.stats().repairs_before_detection;
  }
  EXPECT_EQ(losses_accounted, gen.loss->total_losses());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmsProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace cesrm
