// Tests for the adaptive timer-parameter controller (Floyd et al. §V) and
// its integration into the SRM agent.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "srm/adaptive.hpp"
#include "srm/srm_agent.hpp"
#include "util/check.hpp"

namespace cesrm::srm {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;

// ------------------------------------------------------------ controller ----

TEST(AdaptiveController, StartsAtSeedValues) {
  AdaptiveController c(2.0, 2.0);
  EXPECT_DOUBLE_EQ(c.deterministic(), 2.0);
  EXPECT_DOUBLE_EQ(c.probabilistic(), 2.0);
  EXPECT_EQ(c.observations(), 0u);
}

TEST(AdaptiveController, SeedsAreClampedToRange) {
  AdaptiveController c(10.0, 0.1);
  EXPECT_DOUBLE_EQ(c.deterministic(), 4.0);  // det_max
  EXPECT_DOUBLE_EQ(c.probabilistic(), 1.0);  // prob_min
}

TEST(AdaptiveController, DuplicatesGrowBothComponents) {
  AdaptiveController c(2.0, 2.0);
  for (int i = 0; i < 10; ++i) c.observe(3.0, 1.0);
  EXPECT_GT(c.deterministic(), 2.0);
  EXPECT_GT(c.probabilistic(), 2.0);
  EXPECT_GT(c.average_duplicates(), 1.0);
}

TEST(AdaptiveController, QuietButSlowShrinksProbabilistic) {
  AdaptiveController c(2.0, 4.0);
  for (int i = 0; i < 20; ++i) c.observe(0.0, 2.5);
  EXPECT_LT(c.probabilistic(), 4.0);
}

TEST(AdaptiveController, VerySlowAlsoShrinksDeterministic) {
  AdaptiveController c(2.0, 4.0);
  for (int i = 0; i < 20; ++i) c.observe(0.0, 5.0);
  EXPECT_LT(c.deterministic(), 2.0);
}

TEST(AdaptiveController, OnTargetIsStable) {
  AdaptiveController c(2.0, 2.0);
  for (int i = 0; i < 50; ++i) c.observe(0.8, 1.0);  // dups < target, fast
  EXPECT_DOUBLE_EQ(c.deterministic(), 2.0);
  EXPECT_DOUBLE_EQ(c.probabilistic(), 2.0);
}

TEST(AdaptiveController, ClampsUnderSustainedPressure) {
  AdaptiveController c(2.0, 2.0);
  for (int i = 0; i < 1000; ++i) c.observe(10.0, 0.5);
  EXPECT_DOUBLE_EQ(c.deterministic(), 4.0);
  EXPECT_DOUBLE_EQ(c.probabilistic(), 8.0);
  for (int i = 0; i < 2000; ++i) c.observe(0.0, 10.0);
  EXPECT_DOUBLE_EQ(c.deterministic(), 0.5);
  EXPECT_DOUBLE_EQ(c.probabilistic(), 1.0);
}

TEST(AdaptiveController, EwmaTracksRecentObservations) {
  AdaptiveController c(2.0, 2.0);
  c.observe_duplicates(4.0);
  EXPECT_DOUBLE_EQ(c.average_duplicates(), 4.0);  // first sets directly
  c.observe_duplicates(0.0);
  EXPECT_NEAR(c.average_duplicates(), 3.0, 1e-12);  // α = 0.25
  c.observe(0.0, 2.0);
  EXPECT_DOUBLE_EQ(c.average_delay(), 2.0);  // first sets directly
  EXPECT_NEAR(c.average_duplicates(), 2.25, 1e-12);
}

TEST(AdaptiveController, RejectsNegativeSeeds) {
  EXPECT_THROW(AdaptiveController(-1.0, 2.0), util::CheckError);
}

// ----------------------------------------------------------- integration ----

/// Bench on tree 0(1(3 4) 2(5)) with adaptive timers enabled.
struct AdaptiveBench {
  AdaptiveBench() {
    net::NetworkConfig ncfg;
    ncfg.link_delay = SimTime::millis(10);
    tree = std::make_unique<net::MulticastTree>(
        net::parse_tree("0(1(3 4) 2(5))"));
    network = std::make_unique<net::Network>(sim, *tree, ncfg);
    config.oracle_distances = true;
    config.adaptive_timers = true;
    for (NodeId n : std::vector<NodeId>{0, 3, 4, 5}) {
      agents.push_back(std::make_unique<SrmAgent>(
          sim, *network, n, 0, config,
          util::Rng(100 + static_cast<std::uint64_t>(n))));
    }
    network->set_drop_fn([this](const net::Packet& pkt, NodeId from,
                                NodeId to) {
      if (pkt.type != net::PacketType::kData) return false;
      return tree->parent(to) == from && drops.count({pkt.seq, to}) != 0;
    });
  }
  SrmAgent& at(NodeId node) {
    for (auto& a : agents)
      if (a->node() == node) return *a;
    throw std::runtime_error("no agent");
  }
  sim::Simulator sim;
  std::unique_ptr<net::MulticastTree> tree;
  std::unique_ptr<net::Network> network;
  SrmConfig config;
  std::vector<std::unique_ptr<SrmAgent>> agents;
  std::set<std::pair<SeqNo, NodeId>> drops;
};

TEST(AdaptiveSrm, ControllersExistOnlyWhenEnabled) {
  AdaptiveBench b;
  EXPECT_NE(b.at(3).request_controller(), nullptr);
  EXPECT_NE(b.at(3).reply_controller(), nullptr);

  // And a default (fixed) agent has none.
  sim::Simulator sim2;
  auto tree2 = net::parse_tree("0(1 2)");
  net::Network net2(sim2, tree2, {});
  SrmConfig fixed;
  SrmAgent plain(sim2, net2, 1, 0, fixed, util::Rng(1));
  EXPECT_EQ(plain.request_controller(), nullptr);
  EXPECT_EQ(plain.reply_controller(), nullptr);
}

TEST(AdaptiveSrm, RecoversAllLossesAndFeedsControllers) {
  AdaptiveBench b;
  for (SeqNo i = 0; i < 120; i += 3) b.drops.insert({i, 1});  // shared
  for (SeqNo i = 1; i < 120; i += 11) b.drops.insert({i, 5});
  for (SeqNo i = 0; i < 150; ++i)
    b.sim.schedule_at(SimTime::millis(80 * i),
                      [&b, i] { b.at(0).send_data(i); });
  b.sim.run_until(SimTime::seconds(60));
  for (NodeId n : {3, 4, 5}) {
    EXPECT_EQ(b.at(n).outstanding_losses(), 0u) << "node " << n;
    for (SeqNo i = 0; i < 150; ++i)
      ASSERT_TRUE(b.at(n).has_packet(0, i)) << "node " << n << " seq " << i;
  }
  // The request controllers at the shared-loss receivers saw episodes.
  EXPECT_GT(b.at(3).request_controller()->observations(), 10u);
  EXPECT_GT(b.at(4).request_controller()->observations(), 10u);
  // Parameters stay inside the clamp range.
  for (NodeId n : {3, 4, 5}) {
    const auto* rc = b.at(n).request_controller();
    EXPECT_GE(rc->deterministic(), 0.5);
    EXPECT_LE(rc->deterministic(), 4.0);
    EXPECT_GE(rc->probabilistic(), 1.0);
    EXPECT_LE(rc->probabilistic(), 8.0);
  }
}

TEST(AdaptiveSrm, LoneLossesDriveParametersDown) {
  // Receiver 5 is the only loser, repeatedly: no duplicate requests ever,
  // so its request parameters should shrink (faster recoveries) over time.
  AdaptiveBench b;
  for (SeqNo i = 0; i < 400; i += 2) b.drops.insert({i, 5});
  for (SeqNo i = 0; i < 420; ++i)
    b.sim.schedule_at(SimTime::millis(80 * i),
                      [&b, i] { b.at(0).send_data(i); });
  b.sim.run_until(SimTime::seconds(80));
  EXPECT_EQ(b.at(5).outstanding_losses(), 0u);
  const auto* rc = b.at(5).request_controller();
  ASSERT_NE(rc, nullptr);
  EXPECT_GT(rc->observations(), 50u);
  EXPECT_LT(rc->average_duplicates(), 0.5);
  // Sole-loser recoveries have high normalized delay (C1·d̂hs ≥ 2 RTT of
  // the local exchange), so the controller trims the parameters below the
  // static seeds.
  EXPECT_LT(rc->deterministic() + rc->probabilistic(), 4.0);
}

}  // namespace
}  // namespace cesrm::srm
