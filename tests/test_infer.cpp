// Unit tests for the §4.2 inference machinery: the Yajnik direct link
// estimator, the Cáceres/MINC MLE, the loss-pattern → link-combination
// solver, and the link trace representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "infer/combination_solver.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "infer/minc_estimator.hpp"
#include "net/topology_builder.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"

namespace cesrm::infer {
namespace {

// Tree: 0(1(3 4) 2(5)); receivers 3, 4, 5 → pattern bits 0, 1, 2.
std::shared_ptr<const net::MulticastTree> small_tree() {
  return std::make_shared<net::MulticastTree>(
      net::parse_tree("0(1(3 4) 2(5))"));
}

trace::LossTrace make_trace_with_drops(
    std::shared_ptr<const net::MulticastTree> tree, net::SeqNo packets,
    const std::vector<std::pair<net::SeqNo, std::vector<net::NodeId>>>&
        drops) {
  trace::LossTrace t("test", tree, sim::SimTime::millis(40), packets);
  for (const auto& [seq, links] : drops) {
    for (net::NodeId link : links) {
      for (net::NodeId r : tree->subtree_receivers(link))
        t.set_lost(t.receiver_index(r), seq);
    }
  }
  return t;
}

// -------------------------------------------------------- Yajnik method ----

TEST(YajnikEstimator, SingleLeafLink) {
  auto tree = small_tree();
  // Drop packets 0..9 on leaf link 3 out of 100 packets.
  std::vector<std::pair<net::SeqNo, std::vector<net::NodeId>>> drops;
  for (net::SeqNo i = 0; i < 10; ++i) drops.push_back({i, {3}});
  const auto t = make_trace_with_drops(tree, 100, drops);
  const auto est = estimate_links_yajnik(t);
  EXPECT_NEAR(est.loss_rate[3], 0.10, 1e-9);
  EXPECT_NEAR(est.loss_rate[1], 0.0, 1e-9);
  EXPECT_NEAR(est.loss_rate[2], 0.0, 1e-9);
  EXPECT_NEAR(est.loss_rate[4], 0.0, 1e-9);
  EXPECT_EQ(est.samples[3], 100u);
}

TEST(YajnikEstimator, InteriorLinkConditionalRate) {
  auto tree = small_tree();
  std::vector<std::pair<net::SeqNo, std::vector<net::NodeId>>> drops;
  // Link 1 (covers receivers 3 and 4) drops 20 of 100 packets.
  for (net::SeqNo i = 0; i < 20; ++i) drops.push_back({i, {1}});
  // Leaf link 3 drops 8 packets that pass link 1.
  for (net::SeqNo i = 30; i < 38; ++i) drops.push_back({i, {3}});
  const auto t = make_trace_with_drops(tree, 100, drops);
  const auto est = estimate_links_yajnik(t);
  EXPECT_NEAR(est.loss_rate[1], 0.20, 1e-9);
  // Link 3 saw only the 80 packets that survived link 1.
  EXPECT_EQ(est.samples[3], 80u);
  EXPECT_NEAR(est.loss_rate[3], 8.0 / 80.0, 1e-9);
}

TEST(YajnikEstimator, RootLinkSeesAllPackets) {
  auto tree = small_tree();
  std::vector<std::pair<net::SeqNo, std::vector<net::NodeId>>> drops;
  // Drop everything for everyone via the two top links on 5 packets.
  for (net::SeqNo i = 0; i < 5; ++i) drops.push_back({i, {1, 2}});
  const auto t = make_trace_with_drops(tree, 50, drops);
  const auto est = estimate_links_yajnik(t);
  // The source always "arrives": both top links get 50 samples.
  EXPECT_EQ(est.samples[1], 50u);
  EXPECT_EQ(est.samples[2], 50u);
  EXPECT_NEAR(est.loss_rate[1], 0.1, 1e-9);
  EXPECT_NEAR(est.loss_rate[2], 0.1, 1e-9);
}

TEST(YajnikEstimator, LosslessTraceGivesZeroRates) {
  auto tree = small_tree();
  const auto t = make_trace_with_drops(tree, 10, {});
  const auto est = estimate_links_yajnik(t);
  for (net::LinkId l : tree->links())
    EXPECT_DOUBLE_EQ(est.loss_rate[static_cast<std::size_t>(l)], 0.0);
}

TEST(YajnikEstimator, PinnedOnTable1Traces) {
  // Exact per-link denominators and rates, recorded from the per-packet
  // walk the per-pattern tally replaced. Trace 2 has 19 links, trace 12
  // 11; slot 0 is the root's.
  struct Pin {
    int id;
    std::vector<std::uint64_t> samples;
    std::vector<double> loss_rate;
  };
  const Pin pins[] = {
      {2,
       {0,      148970, 148649, 148414, 147672, 147672, 148970,
        148970, 148970, 139937, 145418, 143232, 148072, 140834,
        139081, 139937, 145418, 148649, 139937, 148414},
       {0x0p+0,
        0x1.1a6ef6ffa8e4fp-9,
        0x1.9e6cc32d877a8p-10,
        0x1.47a62abe3e416p-8,
        0x1.f427ff392e1cfp-7,
        0x1.ec9c9a9b5b133p-6,
        0x1.f0bbaf1f40858p-5,
        0x1.8b0e0dba24113p-8,
        0x1.bf68014ad352cp-5,
        0x1.90e2dfcc130ffp-8,
        0x1.ec229a6edbcb7p-10,
        0x0p+0,
        0x0p+0,
        0x0p+0,
        0x0p+0,
        0x1.d9f1e7165986ep-10,
        0x1.0b3fcd4c9c65dp-7,
        0x1.2b22a8a8e5bd1p-7,
        0x1.2b427b66658eap-7,
        0x1.138b0d2cc11edp-10}},
      {12,
       {0, 38724, 38241, 35204, 38724, 32159, 38385, 35204, 38241, 38241,
        38385, 38241},
       {0x0p+0,
        0x1.98b624a69828p-7,
        0x1.454b2869fc4a9p-4,
        0x1.624979ac66f86p-4,
        0x1.1edc102ef6b7ep-7,
        0x0p+0,
        0x1.5a29715ef6b92p-6,
        0x1.a99c1cf8a40dep-5,
        0x1.1b330495ed6ep-6,
        0x1.7f221156a53b1p-4,
        0x1.ee45e8454e9c5p-6,
        0x1.21328c9f4cb29p-6}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("trace " + std::to_string(pin.id));
    const auto gen = trace::generate_trace(trace::table1_spec(pin.id));
    const auto est = estimate_links_yajnik(*gen.loss);
    EXPECT_EQ(est.samples, pin.samples);
    EXPECT_EQ(est.loss_rate, pin.loss_rate);
  }
}

// ----------------------------------------------------------------- MINC ----

TEST(MincEstimator, RecoversLeafLinkRates) {
  auto tree = small_tree();
  std::vector<std::pair<net::SeqNo, std::vector<net::NodeId>>> drops;
  for (net::SeqNo i = 0; i < 100; ++i) drops.push_back({i, {3}});
  const auto t = make_trace_with_drops(tree, 1000, drops);
  const auto est = estimate_links_minc(t);
  EXPECT_NEAR(est.loss_rate[3], 0.10, 0.02);
  EXPECT_NEAR(est.loss_rate[4], 0.0, 0.02);
}

TEST(MincEstimator, AgreesWithYajnikOnGeneratedTrace) {
  trace::TraceSpec spec;
  spec.name = "MINC";
  spec.receivers = 8;
  spec.depth = 4;
  spec.period_ms = 40;
  spec.packets = 30000;
  spec.losses = 10000;
  spec.seed = 21;
  const auto gen = trace::generate_trace(spec);
  const auto yajnik = estimate_links_yajnik(*gen.loss);
  const auto minc = estimate_links_minc(*gen.loss);
  // The paper (§4.2) found the two methods "yield very similar" estimates.
  // Compare on identifiable links with meaningful sample counts.
  double max_diff = 0.0;
  for (net::LinkId l : gen.loss->tree().links()) {
    const auto li = static_cast<std::size_t>(l);
    if (!minc.identifiable[li]) continue;
    if (yajnik.samples[li] < 1000) continue;
    max_diff = std::max(max_diff,
                        std::abs(yajnik.loss_rate[li] - minc.loss_rate[li]));
  }
  EXPECT_LT(max_diff, 0.05);
}

TEST(MincEstimator, FlagsChainLinksUnidentifiable) {
  // 0 - 1 - 2 - {3,4}: links 1 and 2 form a single-child chain.
  auto tree = std::make_shared<net::MulticastTree>(
      net::parse_tree("0(1(2(3 4)))"));
  trace::LossTrace t("chain", tree, sim::SimTime::millis(40), 100);
  for (net::SeqNo i = 0; i < 10; ++i) {
    t.set_lost(0, i);
    t.set_lost(1, i);
  }
  const auto est = estimate_links_minc(t);
  EXPECT_FALSE(est.identifiable[1]);
  EXPECT_FALSE(est.identifiable[2]);
  EXPECT_TRUE(est.identifiable[3]);
  EXPECT_TRUE(est.identifiable[4]);
  // The composite chain loss (10%) splits geometrically across both links.
  const double composite =
      1.0 - (1.0 - est.loss_rate[1]) * (1.0 - est.loss_rate[2]);
  EXPECT_NEAR(composite, 0.10, 0.02);
  EXPECT_NEAR(est.loss_rate[1], est.loss_rate[2], 1e-9);
}

// --------------------------------------------------- combination solver ----

CombinationSolver make_solver(std::shared_ptr<const net::MulticastTree> tree,
                              std::vector<double> rates) {
  return CombinationSolver(*tree, std::move(rates), tree->receivers());
}

TEST(CombinationSolver, SingleReceiverLossPicksLeafLink) {
  auto tree = small_tree();
  // Uniform moderate rates.
  std::vector<double> rates(tree->size(), 0.05);
  auto solver = make_solver(tree, rates);
  const auto& res = solver.solve(0b001);  // receiver 3 only
  EXPECT_EQ(res.links, std::vector<net::LinkId>{3});
  EXPECT_GT(res.confidence, 0.9);
  // p(c) = p(3)·(1−p(1))(1−p(2))(1−p(4))(1−p(5))
  const double expected = 0.05 * std::pow(0.95, 4);
  EXPECT_NEAR(res.probability, expected, 1e-9);
}

TEST(CombinationSolver, SubtreeLossPrefersSharedLink) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.05);
  auto solver = make_solver(tree, rates);
  // Receivers 3 and 4 both lost: cutting link 1 (p=0.05) beats cutting
  // both leaf links (0.05²·0.95).
  const auto& res = solver.solve(0b011);
  EXPECT_EQ(res.links, std::vector<net::LinkId>{1});
}

TEST(CombinationSolver, IndependentLeafRatesCanBeatSharedLink) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.0);
  rates[1] = 0.001;  // shared link almost never drops
  rates[3] = 0.5;    // both leaf links drop half the packets
  rates[4] = 0.5;
  rates[2] = 0.01;
  rates[5] = 0.01;
  auto solver = make_solver(tree, rates);
  const auto& res = solver.solve(0b011);
  // Cutting {3,4}: 0.5·0.5·(1−0.001)·… ≈ 0.25 ≫ cutting {1}: 0.001.
  EXPECT_EQ(res.links, (std::vector<net::LinkId>{3, 4}));
}

TEST(CombinationSolver, FullPatternPicksMostProbableExplanation) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.02);
  rates[1] = 0.4;
  rates[2] = 0.4;
  auto solver = make_solver(tree, rates);
  const auto& res = solver.solve(0b111);  // everyone lost
  EXPECT_EQ(res.links, (std::vector<net::LinkId>{1, 2}));
}

TEST(CombinationSolver, EmptyPatternHasNoLinksAndFullConfidence) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.05);
  auto solver = make_solver(tree, rates);
  const auto& res = solver.solve(0);
  EXPECT_TRUE(res.links.empty());
  EXPECT_DOUBLE_EQ(res.confidence, 1.0);
}

TEST(CombinationSolver, SelectedCombinationReproducesPattern) {
  auto tree = std::make_shared<net::MulticastTree>(
      net::parse_tree("0(1(4 5(8 9)) 2(6) 3(7 10))"));
  std::vector<double> rates(tree->size(), 0.0);
  util::Rng rng(1234);
  for (net::LinkId l : tree->links())
    rates[static_cast<std::size_t>(l)] = rng.uniform(0.01, 0.3);
  auto solver = make_solver(tree, rates);
  const auto& receivers = tree->receivers();
  const auto all = static_cast<trace::LossPattern>(
      (trace::LossPattern{1} << receivers.size()) - 1);
  for (trace::LossPattern x = 1; x <= all; ++x) {
    const auto& res = solver.solve(x);
    // Reconstruct the pattern implied by cutting exactly res.links.
    trace::LossPattern implied = 0;
    for (std::size_t r = 0; r < receivers.size(); ++r)
      for (net::LinkId l : res.links)
        if (tree->is_ancestor(l, receivers[r]))
          implied |= trace::LossPattern{1} << r;
    ASSERT_EQ(implied, x) << "pattern " << x;
    // Antichain: no selected link is an ancestor of another.
    for (net::LinkId a : res.links)
      for (net::LinkId b : res.links)
        if (a != b) {
          ASSERT_FALSE(tree->is_ancestor(a, b));
        }
    ASSERT_GT(res.probability, 0.0);
    ASSERT_GT(res.confidence, 0.0);
    ASSERT_LE(res.confidence, 1.0 + 1e-12);
  }
}

TEST(CombinationSolver, ConfidenceIsMaxOverSum) {
  // Two receivers under one router: 0(1(2 3)).
  auto tree = std::make_shared<net::MulticastTree>(net::parse_tree("0(1(2 3))"));
  std::vector<double> rates{0.0, 0.1, 0.2, 0.3};
  auto solver = make_solver(tree, rates);
  const auto& res = solver.solve(0b11);
  // Explanations: cut {1}: 0.1; cut {2,3}: 0.9·0.2·0.3 = 0.054.
  EXPECT_EQ(res.links, std::vector<net::LinkId>{1});
  EXPECT_NEAR(res.probability, 0.1, 1e-9);
  EXPECT_NEAR(res.confidence, 0.1 / (0.1 + 0.054), 1e-9);
}

TEST(CombinationSolver, MemoizesRepeatedPatterns) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.05);
  auto solver = make_solver(tree, rates);
  solver.solve(0b011);
  solver.solve(0b011);
  solver.solve(0b101);
  EXPECT_EQ(solver.cache_size(), 2u);
}

TEST(CombinationSolver, ZeroEstimatesAreSmoothed) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.0);  // all-zero estimates
  auto solver = make_solver(tree, rates);
  // Still yields a valid explanation for any pattern.
  const auto& res = solver.solve(0b111);
  EXPECT_FALSE(res.links.empty());
  EXPECT_GT(res.probability, 0.0);
}

TEST(CombinationSolver, RejectsForeignPatternBits) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.05);
  auto solver = make_solver(tree, rates);
  EXPECT_THROW(solver.solve(0b1000), util::CheckError);
}

TEST(CombinationSolver, LinkForFindsResponsibleAncestor) {
  auto tree = small_tree();
  std::vector<double> rates(tree->size(), 0.05);
  auto solver = make_solver(tree, rates);
  EXPECT_EQ(solver.link_for(0b011, 0), 1);  // receiver 3 covered by link 1
  EXPECT_EQ(solver.link_for(0b011, 1), 1);
  EXPECT_EQ(solver.link_for(0b011, 2), net::kInvalidLink);  // didn't lose
}

// ------------------------------------------------ link trace + pipeline ----

TEST(LinkTrace, DropLinksReproduceEveryPattern) {
  trace::TraceSpec spec;
  spec.name = "LT";
  spec.receivers = 7;
  spec.depth = 4;
  spec.period_ms = 40;
  spec.packets = 10000;
  spec.losses = 3500;
  spec.seed = 31;
  const auto gen = trace::generate_trace(spec);
  const auto est = estimate_links_yajnik(*gen.loss);
  LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  const auto& tree = gen.loss->tree();

  for (net::SeqNo i = 0; i < spec.packets; ++i) {
    const auto& drops = links.drop_links(i);
    for (std::size_t r = 0; r < gen.loss->receiver_count(); ++r) {
      bool covered = false;
      for (net::LinkId l : drops)
        covered |= tree.is_ancestor(l, gen.loss->receiver_node(r));
      ASSERT_EQ(covered, gen.loss->lost(r, i))
          << "packet " << i << " receiver " << r;
    }
  }
}

TEST(LinkTrace, LinkForMatchesLostCells) {
  trace::TraceSpec spec;
  spec.name = "LT2";
  spec.receivers = 5;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 4000;
  spec.losses = 1200;
  spec.seed = 33;
  const auto gen = trace::generate_trace(spec);
  const auto est = estimate_links_yajnik(*gen.loss);
  LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  for (net::SeqNo i = 0; i < spec.packets; i += 7) {
    for (std::size_t r = 0; r < gen.loss->receiver_count(); ++r) {
      const net::LinkId l = links.link_for(r, i);
      EXPECT_EQ(l != net::kInvalidLink, gen.loss->lost(r, i));
      if (l != net::kInvalidLink) {
        EXPECT_TRUE(gen.loss->tree().is_ancestor(
            l, gen.loss->receiver_node(r)));
      }
    }
  }
}

TEST(LinkTrace, HighConfidenceAndTruthMatchOnGeneratedTraces) {
  trace::TraceSpec spec;
  spec.name = "LT3";
  spec.receivers = 10;
  spec.depth = 5;
  spec.period_ms = 40;
  spec.packets = 20000;
  spec.losses = 8000;
  spec.seed = 35;
  const auto gen = trace::generate_trace(spec);
  const auto est = estimate_links_yajnik(*gen.loss);
  LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  // §4.2 reports >85–90% of selected combinations above 95–98% posterior;
  // our synthetic traces behave the same.
  EXPECT_GT(links.fraction_confident(0.95), 0.80);
  // Ground-truth agreement the paper could not measure; ours is high.
  EXPECT_GT(links.truth_match_fraction(gen.true_drop_links), 0.85);
}

TEST(LinkTrace, ConfidenceOfCleanPacketsIsOne) {
  auto tree = small_tree();
  trace::LossTrace t("clean", tree, sim::SimTime::millis(40), 10);
  t.set_lost(0, 3);
  const auto est = estimate_links_yajnik(t);
  LinkTraceRepresentation links(t, est.loss_rate);
  EXPECT_DOUBLE_EQ(links.confidence(0), 1.0);
  EXPECT_TRUE(links.drop_links(0).empty());
  EXPECT_FALSE(links.drop_links(3).empty());
}

TEST(LinkTrace, EveryPacketCarriesItsPatternsCombination) {
  // Packets are stored as an index into the solver's results: each must
  // read back exactly solve(pattern), the confidence rounded to float as
  // the per-packet copies were.
  for (const int id : {2, 12}) {
    SCOPED_TRACE("trace " + std::to_string(id));
    const auto gen = trace::generate_trace(trace::table1_spec(id));
    const auto est = estimate_links_yajnik(*gen.loss);
    const LinkTraceRepresentation links(*gen.loss, est.loss_rate);
    ASSERT_EQ(links.packet_count(), gen.loss->packet_count());
    for (net::SeqNo i = 0; i < gen.loss->packet_count(); ++i) {
      const CombinationResult& res = links.solver().solve(gen.loss->pattern(i));
      ASSERT_TRUE(std::ranges::equal(links.drop_links(i), res.links))
          << "seq " << i;
      ASSERT_EQ(links.confidence(i),
                static_cast<double>(static_cast<float>(res.confidence)))
          << "seq " << i;
    }
  }
}

TEST(LinkTrace, DropsOnlyDownstreamCrossingsOntoDropLinks) {
  // Packet 1 drops on link 1 (receivers 3 and 4), packet 2 on link 4.
  auto tree = small_tree();
  const auto t = make_trace_with_drops(tree, 4, {{1, {1}}, {2, {4}}});
  const LinkTraceRepresentation links(t, estimate_links_yajnik(t).loss_rate);
  ASSERT_TRUE(std::ranges::equal(links.drop_links(1),
                                 std::vector<net::LinkId>{1}));
  EXPECT_TRUE(links.drops(1, 0, 1));
  EXPECT_FALSE(links.drops(1, 1, 0));  // upstream over the same link
  EXPECT_FALSE(links.drops(1, 1, 3));  // below the drop
  EXPECT_FALSE(links.drops(1, 0, 2));
  EXPECT_TRUE(links.drops(2, 1, 4));
  EXPECT_FALSE(links.drops(2, 4, 1));
  EXPECT_FALSE(links.drops(2, 0, 1));
  EXPECT_FALSE(links.drops(2, 1, 3));
  for (net::NodeId v = 1; v < 6; ++v) {
    EXPECT_FALSE(links.drops(0, tree->parent(v), v));
    EXPECT_FALSE(links.drops(3, tree->parent(v), v));
  }
}

}  // namespace
}  // namespace cesrm::infer
