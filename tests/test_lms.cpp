// Tests for the LMS baseline: the replier directory (router state,
// staleness, repair) and the LmsAgent recovery exchange, including the
// churn failure mode the CESRM paper criticizes in §3.3.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/network.hpp"
#include "lms/directory.hpp"
#include "lms/lms_agent.hpp"
#include "net/topology_builder.hpp"
#include "recovery_records.hpp"
#include "util/check.hpp"

namespace cesrm::lms {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;

// ------------------------------------------------------------- directory ----

// Tree: 0(1(3 4) 2(5)); receivers 3, 4, 5.
net::MulticastTree small_tree() {
  return net::parse_tree("0(1(3 4) 2(5))");
}

TEST(LmsDirectory, DesignatesLowestReceiverPerRouter) {
  sim::Simulator sim;
  const auto tree = small_tree();
  LmsDirectory dir(sim, tree, SimTime::seconds(10));
  EXPECT_EQ(dir.designated_replier(1), 3);
  EXPECT_EQ(dir.designated_replier(2), 5);
  // The root hands off to the source itself.
  EXPECT_EQ(dir.designated_replier(0), 0);
  EXPECT_THROW(dir.designated_replier(3), util::CheckError);  // leaf
}

TEST(LmsDirectory, RoutesSkipSelfReplier) {
  sim::Simulator sim;
  const auto tree = small_tree();
  LmsDirectory dir(sim, tree, SimTime::seconds(10));
  // Receiver 4's lowest ancestor router is 1, whose replier (3) != 4.
  auto r = dir.route(4, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->router, 1);
  EXPECT_EQ(r->replier, 3);
  // Receiver 3 IS router 1's replier: its level-0 route skips to the root.
  r = dir.route(3, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->router, 0);
  EXPECT_EQ(r->replier, 0);
  // Escalation from 4: level 1 reaches the root; deeper levels saturate.
  r = dir.route(4, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->router, 0);
  EXPECT_EQ(dir.route(4, 7)->router, 0);
}

TEST(LmsDirectory, StaleUntilRepairThenRedesignates) {
  sim::Simulator sim;
  const auto tree = small_tree();
  LmsDirectory dir(sim, tree, SimTime::seconds(10));
  dir.fail_member(3);
  EXPECT_TRUE(dir.is_failed(3));
  // Stale: the entry still points at the dead member...
  EXPECT_EQ(dir.designated_replier(1), 3);
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(dir.designated_replier(1), 3);
  // ...until the repair delay elapses.
  sim.run_until(SimTime::seconds(11));
  EXPECT_EQ(dir.designated_replier(1), 4);
  EXPECT_EQ(dir.redesignations(), 1);
}

TEST(LmsDirectory, FailingAllSubtreeReceiversLeavesNoReplier) {
  sim::Simulator sim;
  const auto tree = small_tree();
  LmsDirectory dir(sim, tree, SimTime::millis(100));
  dir.fail_member(3);
  dir.fail_member(4);
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(dir.designated_replier(1), net::kInvalidNode);
  // Routing for 4's sibling subtree still works via the root.
  const auto r = dir.route(5, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->router, 0);
}

// ----------------------------------------------------------------- agent ----

struct LmsBench {
  explicit LmsBench(std::uint64_t seed = 1) {
    net::NetworkConfig ncfg;
    ncfg.link_delay = SimTime::millis(10);
    tree = std::make_unique<net::MulticastTree>(small_tree());
    network = std::make_unique<net::Network>(sim, *tree, ncfg);
    config.oracle_distances = true;
    directory =
        std::make_unique<LmsDirectory>(sim, *tree, SimTime::seconds(10));
    for (NodeId n : std::vector<NodeId>{0, 3, 4, 5}) {
      agents.push_back(std::make_unique<LmsAgent>(
          sim, *network, n, 0, config, *directory,
          util::Rng(seed + static_cast<std::uint64_t>(n))));
    }
    network->set_drop_fn([this](const net::Packet& pkt, NodeId from,
                                NodeId to) {
      if (pkt.type != net::PacketType::kData) return false;
      return tree->parent(to) == from && drops.count({pkt.seq, to}) != 0;
    });
  }
  LmsAgent& at(NodeId node) {
    for (auto& a : agents)
      if (a->node() == node) return *a;
    throw std::runtime_error("no agent");
  }
  void drop(SeqNo seq, NodeId child) { drops.insert({seq, child}); }
  void transmit(SeqNo n) {
    for (SeqNo i = 0; i < n; ++i)
      sim.schedule_at(SimTime::millis(80 * i),
                      [this, i] { at(0).send_data(i); });
  }
  sim::Simulator sim;
  std::unique_ptr<net::MulticastTree> tree;
  std::unique_ptr<net::Network> network;
  srm::SrmConfig config;
  std::unique_ptr<LmsDirectory> directory;
  std::vector<std::unique_ptr<LmsAgent>> agents;
  std::set<std::pair<SeqNo, NodeId>> drops;
};

TEST(LmsAgent, RecoversThroughDesignatedReplier) {
  LmsBench b;
  b.drop(0, 4);  // receiver 4 loses; router 1's replier is 3
  b.transmit(2);
  b.sim.run_until(SimTime::seconds(10));
  EXPECT_TRUE(b.at(4).has_packet(0, 0));
  EXPECT_EQ(b.at(4).stats().exp_requests_sent, 1u);  // one shot, no retry
  EXPECT_EQ(b.at(3).stats().exp_replies_sent, 1u);
  // No SRM multicast recovery traffic at all.
  for (auto& a : b.agents) {
    EXPECT_EQ(a->stats().requests_sent, 0u);
    EXPECT_EQ(a->stats().replies_sent, 0u);
  }
  ASSERT_EQ(b.at(4).stats().recoveries.size(), 1u);
  // LMS recovery is fast: roughly the RTT to the nearby replier.
  EXPECT_LT(recovery_records(b.at(4).stats().recoveries)[0].latency_seconds(),
            0.08);
}

TEST(LmsAgent, ReplyIsLocalizedToTurningPointSubtree) {
  LmsBench b;
  b.drop(0, 4);
  b.transmit(2);
  b.sim.run_until(SimTime::seconds(10));
  // The reply went unicast 3→1 then subcast below 1: receiver 5 and the
  // source never saw the retransmission.
  EXPECT_EQ(b.at(5).stats().duplicate_replies_received, 0u);
  EXPECT_EQ(b.network->crossings().multicast_of(net::PacketType::kExpReply),
            0u);
  EXPECT_GT(b.network->crossings().subcast_of(net::PacketType::kExpReply),
            0u);
}

TEST(LmsAgent, SharedLossEscalatesToTheRoot) {
  LmsBench b;
  b.drop(0, 1);  // 3 and 4 both lose: router 1's replier (3) shares it
  b.transmit(2);
  b.sim.run_until(SimTime::seconds(30));
  EXPECT_TRUE(b.at(3).has_packet(0, 0));
  EXPECT_TRUE(b.at(4).has_packet(0, 0));
  // Receiver 4's first request went to 3 (useless), the retry escalated.
  EXPECT_GE(b.at(4).stats().exp_requests_sent, 1u);
  EXPECT_EQ(b.at(3).outstanding_losses() + b.at(4).outstanding_losses(), 0u);
}

TEST(LmsAgent, CrashedReplierStallsRecoveryUntilRepair) {
  LmsBench b;
  b.drop(10, 4);  // loss after the crash below
  b.transmit(12);
  // Crash replier 3 before the loss happens.
  b.sim.schedule_at(SimTime::millis(200), [&b] {
    b.at(3).fail();
    b.directory->fail_member(3);
  });
  b.sim.run_until(SimTime::seconds(60));
  EXPECT_TRUE(b.at(4).has_packet(0, 10));
  ASSERT_EQ(b.at(4).stats().recoveries.size(), 1u);
  const auto rec = recovery_records(b.at(4).stats().recoveries)[0];
  // The first request black-holed at the dead replier; recovery needed
  // either the escalation timeout or the directory repair — far slower
  // than the healthy-path exchange (< 80 ms).
  EXPECT_GT(rec.latency_seconds(), 0.08);
  EXPECT_GE(b.at(4).stats().exp_requests_sent, 2u);
}

TEST(LmsAgent, OutstandingLossIsNotStalledWhileItsRetryIsArmed) {
  // LMS cancels the SRM request timer at detection; the retry timer is
  // what acts on the loss, so the fault oracle must not count it stalled.
  LmsBench b;
  b.drop(10, 4);
  b.transmit(12);
  b.sim.schedule_at(SimTime::millis(200), [&b] {
    b.at(3).fail();
    b.directory->fail_member(3);
  });
  // Packet 11 reveals the loss at 0.9 s; the request to the dead replier
  // black-holes and the loss waits on its 80 ms retry timer.
  b.sim.run_until(SimTime::millis(950));
  ASSERT_EQ(b.at(4).outstanding_losses(), 1u);
  EXPECT_EQ(b.at(4).stalled_losses(), 0u);
  b.sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(b.at(4).outstanding_losses(), 0u);
  EXPECT_TRUE(b.at(4).has_packet(0, 10));
}

TEST(LmsAgent, DirectoryRepairRestoresFastRecovery) {
  LmsBench b;
  b.drop(10, 4);
  // A second loss long after the repair completed (repair delay 10 s).
  b.drop(200, 4);
  b.transmit(220);
  b.sim.schedule_at(SimTime::millis(200), [&b] {
    b.at(3).fail();
    b.directory->fail_member(3);
  });
  b.sim.run_until(SimTime::seconds(80));
  ASSERT_EQ(b.at(4).stats().recoveries.size(), 2u);
  const auto post_repair = recovery_records(b.at(4).stats().recoveries)[1];
  EXPECT_TRUE(post_repair.recovered);
  // Post-repair the entry points at receiver 4's sibling... receiver 4
  // itself is now router 1's designated replier, so its own requests
  // route to the root — still a single-shot fast exchange.
  EXPECT_LT(post_repair.latency_seconds(), 0.2);
  EXPECT_GE(b.directory->redesignations(), 1);
}

}  // namespace
}  // namespace cesrm::lms
