// Unit tests for the network substrate: topology, tree builder, packets,
// and the delivery primitives (multicast flooding, unicast, subcast) with
// their timing and loss semantics.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "net/topology_builder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::net {
namespace {

// Tree used in most topology tests:
//        0
//       . .
//      1   2
//     . .   .
//    3   4   5
MulticastTree small_tree() {
  return MulticastTree({kInvalidNode, 0, 0, 1, 1, 2});
}

// ------------------------------------------------------------- topology ----

TEST(Topology, BasicStructure) {
  const auto t = small_tree();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.link_count(), 5u);
  EXPECT_EQ(t.parent(3), 1);
  EXPECT_EQ(t.parent(0), kInvalidNode);
  EXPECT_TRUE(t.is_root(0));
  EXPECT_TRUE(t.is_leaf(3));
  EXPECT_FALSE(t.is_leaf(1));
  EXPECT_EQ(t.children(1), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(t.receivers(), (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(t.links(), (std::vector<LinkId>{1, 2, 3, 4, 5}));
}

TEST(Topology, Depths) {
  const auto t = small_tree();
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(1), 1);
  EXPECT_EQ(t.depth(5), 2);
  EXPECT_EQ(t.max_depth(), 2);
}

TEST(Topology, SubtreeReceivers) {
  const auto t = small_tree();
  EXPECT_EQ(t.subtree_receivers(0), (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(t.subtree_receivers(1), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(t.subtree_receivers(5), (std::vector<NodeId>{5}));
}

TEST(Topology, Ancestry) {
  const auto t = small_tree();
  EXPECT_TRUE(t.is_ancestor(0, 3));
  EXPECT_TRUE(t.is_ancestor(1, 3));
  EXPECT_TRUE(t.is_ancestor(3, 3));
  EXPECT_FALSE(t.is_ancestor(2, 3));
  EXPECT_FALSE(t.is_ancestor(3, 1));
}

TEST(Topology, Lca) {
  const auto t = small_tree();
  EXPECT_EQ(t.lca(3, 4), 1);
  EXPECT_EQ(t.lca(3, 5), 0);
  EXPECT_EQ(t.lca(3, 3), 3);
  EXPECT_EQ(t.lca(1, 3), 1);
  EXPECT_EQ(t.lca(0, 5), 0);
}

TEST(Topology, PathAndHops) {
  const auto t = small_tree();
  EXPECT_EQ(t.path(3, 5), (std::vector<NodeId>{3, 1, 0, 2, 5}));
  EXPECT_EQ(t.path(3, 4), (std::vector<NodeId>{3, 1, 4}));
  EXPECT_EQ(t.path(3, 3), (std::vector<NodeId>{3}));
  EXPECT_EQ(t.hop_distance(3, 5), 4);
  EXPECT_EQ(t.hop_distance(3, 4), 2);
  EXPECT_EQ(t.hop_distance(0, 0), 0);
}

TEST(Topology, Neighbors) {
  const auto t = small_tree();
  EXPECT_EQ(t.neighbors(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.neighbors(1), (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(t.neighbors(3), (std::vector<NodeId>{1}));
}

TEST(Topology, RejectsMalformedTrees) {
  // No root.
  EXPECT_THROW(MulticastTree({0, 0}), util::CheckError);
  // Two roots.
  EXPECT_THROW(MulticastTree({kInvalidNode, kInvalidNode}), util::CheckError);
  // Self-parent.
  EXPECT_THROW(MulticastTree({kInvalidNode, 1}), util::CheckError);
  // Cycle (1 <-> 2, disconnected from root 0).
  EXPECT_THROW(MulticastTree({kInvalidNode, 2, 1}), util::CheckError);
  // Too small.
  EXPECT_THROW(MulticastTree({kInvalidNode}), util::CheckError);
}

TEST(Topology, ToStringNestedFormat) {
  EXPECT_EQ(small_tree().to_string(), "0(1(3 4) 2(5))");
}

// -------------------------------------------------------------- builder ----

TEST(TopologyBuilder, ParseRoundTrip) {
  const std::string text = "0(1(3 4) 2(5))";
  const auto t = parse_tree(text);
  EXPECT_EQ(t.to_string(), text);
}

TEST(TopologyBuilder, ParseWhitespaceTolerant) {
  const auto t = parse_tree(" 0 ( 1 ( 3 4 )  2 ( 5 ) ) ");
  EXPECT_EQ(t.to_string(), "0(1(3 4) 2(5))");
}

TEST(TopologyBuilder, ParseRejectsMalformed) {
  EXPECT_THROW(parse_tree(""), util::CheckError);
  EXPECT_THROW(parse_tree("0(1"), util::CheckError);
  EXPECT_THROW(parse_tree("0(1) x"), util::CheckError);
  EXPECT_THROW(parse_tree("0(0)"), util::CheckError);   // duplicate id
  EXPECT_THROW(parse_tree("0(5)"), util::CheckError);   // non-dense ids
}

TEST(TopologyBuilder, RandomTreeMatchesShape) {
  util::Rng rng(42);
  for (int receivers : {1, 2, 5, 8, 15}) {
    for (int depth : {1, 3, 7}) {
      TreeShape shape;
      shape.receivers = receivers;
      shape.depth = depth;
      const auto t = build_random_tree(shape, rng);
      EXPECT_EQ(static_cast<int>(t.receivers().size()), receivers)
          << "receivers=" << receivers << " depth=" << depth;
      EXPECT_EQ(t.max_depth(), depth)
          << "receivers=" << receivers << " depth=" << depth;
      EXPECT_EQ(t.root(), 0);
    }
  }
}

TEST(TopologyBuilder, RandomTreeDeterministicInSeed) {
  util::Rng a(7), b(7);
  TreeShape shape;
  shape.receivers = 10;
  shape.depth = 5;
  EXPECT_EQ(build_random_tree(shape, a).to_string(),
            build_random_tree(shape, b).to_string());
}

// Naive reference implementations for the randomized property test: the
// precomputed Euler-tour / binary-lifting answers must coincide with a
// plain parent-pointer walk on every tree.
bool naive_is_ancestor(const MulticastTree& t, NodeId ancestor, NodeId v) {
  for (NodeId cur = v; cur != kInvalidNode; cur = t.parent(cur))
    if (cur == ancestor) return true;
  return false;
}

NodeId naive_lca(const MulticastTree& t, NodeId a, NodeId b) {
  std::set<NodeId> seen;
  for (NodeId cur = a; cur != kInvalidNode; cur = t.parent(cur))
    seen.insert(cur);
  for (NodeId cur = b; cur != kInvalidNode; cur = t.parent(cur))
    if (seen.count(cur) != 0) return cur;
  return kInvalidNode;
}

int naive_hop_distance(const MulticastTree& t, NodeId a, NodeId b) {
  const NodeId l = naive_lca(t, a, b);
  return (t.depth(a) - t.depth(l)) + (t.depth(b) - t.depth(l));
}

NodeId naive_next_hop(const MulticastTree& t, NodeId at, NodeId dest) {
  // First step of the unique tree path: walk dest up to just below `at` if
  // it is in at's subtree, otherwise move toward the root.
  if (!naive_is_ancestor(t, at, dest)) return t.parent(at);
  NodeId cur = dest;
  while (t.parent(cur) != at) cur = t.parent(cur);
  return cur;
}

TEST(Topology, AncestryQueriesMatchNaiveWalkOnRandomTrees) {
  util::Rng rng(20260806);
  for (int round = 0; round < 12; ++round) {
    TreeShape shape;
    shape.receivers = 4 + static_cast<int>(rng.uniform_int(0, 40));
    shape.depth = 2 + static_cast<int>(rng.uniform_int(0, 6));
    const auto t = build_random_tree(shape, rng);
    const auto n = static_cast<NodeId>(t.size());
    for (int probe = 0; probe < 200; ++probe) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      ASSERT_EQ(t.is_ancestor(a, b), naive_is_ancestor(t, a, b))
          << "a=" << a << " b=" << b << " tree=" << t.to_string();
      ASSERT_EQ(t.lca(a, b), naive_lca(t, a, b))
          << "a=" << a << " b=" << b << " tree=" << t.to_string();
      ASSERT_EQ(t.hop_distance(a, b), naive_hop_distance(t, a, b))
          << "a=" << a << " b=" << b << " tree=" << t.to_string();
      if (a != b) {
        ASSERT_EQ(t.next_hop_toward(a, b), naive_next_hop(t, a, b))
            << "a=" << a << " b=" << b << " tree=" << t.to_string();
      }
      ASSERT_EQ(t.ancestor_at_depth(b, t.depth(t.lca(a, b))), t.lca(a, b));
    }
  }
}

TEST(TopologyBuilder, LeavesGetHighestIds) {
  util::Rng rng(11);
  TreeShape shape;
  shape.receivers = 6;
  shape.depth = 3;
  const auto t = build_random_tree(shape, rng);
  const auto internal_count =
      static_cast<NodeId>(t.size() - t.receivers().size());
  for (NodeId r : t.receivers()) EXPECT_GE(r, internal_count);
}

// --------------------------------------------------------------- packet ----

TEST(Packet, TypeProperties) {
  EXPECT_TRUE(is_payload(PacketType::kData));
  EXPECT_TRUE(is_payload(PacketType::kReply));
  EXPECT_TRUE(is_payload(PacketType::kExpReply));
  EXPECT_FALSE(is_payload(PacketType::kRequest));
  EXPECT_FALSE(is_payload(PacketType::kSession));
  EXPECT_FALSE(is_payload(PacketType::kExpRequest));
  EXPECT_EQ(default_size_bytes(PacketType::kData), 1024);
  EXPECT_EQ(default_size_bytes(PacketType::kRequest), 0);
  EXPECT_STREQ(packet_type_name(PacketType::kExpReply), "EREPL");
}

TEST(Packet, Constructors) {
  const Packet d = make_data_packet(0, 42);
  EXPECT_EQ(d.type, PacketType::kData);
  EXPECT_EQ(d.seq, 42);
  EXPECT_EQ(d.sender, 0);
  EXPECT_FALSE(d.is_unicast());

  const Packet rq = make_request_packet(3, 0, 7, 0.08);
  EXPECT_EQ(rq.ann.requestor, 3);
  EXPECT_DOUBLE_EQ(rq.ann.dist_requestor_source, 0.08);
  EXPECT_EQ(rq.size_bytes, 0);

  RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.08;
  ann.replier = 4;
  ann.dist_replier_requestor = 0.04;
  const Packet rp = make_reply_packet(4, 0, 7, ann);
  EXPECT_EQ(rp.size_bytes, 1024);
  EXPECT_DOUBLE_EQ(rp.ann.recovery_delay(), 0.08 + 2 * 0.04);

  const Packet erq = make_exp_request_packet(3, 4, 0, 7, ann);
  EXPECT_TRUE(erq.is_unicast());
  EXPECT_EQ(erq.dest, 4);
}

// -------------------------------------------------------------- network ----

/// Records deliveries (node, type, seq, time).
class RecordingAgent : public Agent {
 public:
  struct Delivery {
    Packet pkt;
    sim::SimTime at;
  };
  RecordingAgent(sim::Simulator& sim, NodeId node) : sim_(sim), node_(node) {}
  void on_packet(const Packet& pkt) override {
    deliveries.push_back({pkt, sim_.now()});
  }
  NodeId node() const { return node_; }
  std::vector<Delivery> deliveries;

 private:
  sim::Simulator& sim_;
  NodeId node_;
};

struct NetFixture {
  explicit NetFixture(NetworkConfig cfg = {})
      : tree(small_tree()), network(sim, tree, cfg) {
    for (NodeId n : std::vector<NodeId>{0, 3, 4, 5}) {
      agents.emplace(n, std::make_unique<RecordingAgent>(sim, n));
      network.attach(n, agents[n].get());
    }
  }
  sim::Simulator sim;
  MulticastTree tree;
  Network network;
  std::map<NodeId, std::unique_ptr<RecordingAgent>> agents;
};

TEST(Network, MulticastReachesAllOtherMembers) {
  NetFixture f;
  f.network.multicast(0, make_data_packet(0, 1));
  f.sim.run();
  EXPECT_TRUE(f.agents[0]->deliveries.empty());  // no self-delivery
  for (NodeId n : {3, 4, 5})
    EXPECT_EQ(f.agents[n]->deliveries.size(), 1u) << "node " << n;
}

TEST(Network, MulticastFromLeafReachesSourceAndLeaves) {
  NetFixture f;
  f.network.multicast(3, make_request_packet(3, 0, 1, 0.0));
  f.sim.run();
  EXPECT_TRUE(f.agents[3]->deliveries.empty());
  for (NodeId n : {0, 4, 5})
    EXPECT_EQ(f.agents[n]->deliveries.size(), 1u) << "node " << n;
}

TEST(Network, MulticastCrossesEveryLinkOnce) {
  NetFixture f;
  f.network.multicast(3, make_request_packet(3, 0, 1, 0.0));
  f.sim.run();
  EXPECT_EQ(f.network.crossings().multicast_of(PacketType::kRequest), 5u);
}

TEST(Network, PropagationDelayPerHopForControlPackets) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(20);
  NetFixture f(cfg);
  // Control packets are 0 bytes: pure propagation delay.
  f.network.multicast(0, make_request_packet(0, 0, 1, 0.0));
  f.sim.run();
  // Node 3 is 2 hops from 0 → 40 ms.
  EXPECT_EQ(f.agents[3]->deliveries.at(0).at, sim::SimTime::millis(40));
  EXPECT_EQ(f.agents[5]->deliveries.at(0).at, sim::SimTime::millis(40));
}

TEST(Network, SerializationDelayForPayload) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(20);
  cfg.link_bandwidth_bps = 1.5e6;
  NetFixture f(cfg);
  f.network.multicast(0, make_data_packet(0, 1));
  f.sim.run();
  // Per hop: 1024*8/1.5e6 ≈ 5.4613 ms serialization + 20 ms propagation.
  const double tx_ms = 1024.0 * 8.0 / 1.5e6 * 1000.0;
  const double expect_ms = 2 * (tx_ms + 20.0);
  EXPECT_NEAR(f.agents[3]->deliveries.at(0).at.to_millis(), expect_ms, 0.01);
}

TEST(Network, BandwidthQueueingDelaysBackToBackPackets) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(1);
  cfg.link_bandwidth_bps = 1.5e6;
  NetFixture f(cfg);
  f.network.multicast(0, make_data_packet(0, 1));
  f.network.multicast(0, make_data_packet(0, 2));  // same instant
  f.sim.run();
  const auto& d = f.agents[5]->deliveries;
  ASSERT_EQ(d.size(), 2u);
  const double tx_ms = 1024.0 * 8.0 / 1.5e6 * 1000.0;
  // Second packet waits one serialization slot on each shared link but the
  // pipeline overlaps: arrival gap equals one serialization time.
  EXPECT_NEAR((d[1].at - d[0].at).to_millis(), tx_ms, 0.01);
}

TEST(Network, ModelBandwidthOffIgnoresSerialization) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(20);
  cfg.model_bandwidth = false;
  NetFixture f(cfg);
  f.network.multicast(0, make_data_packet(0, 1));
  f.sim.run();
  EXPECT_EQ(f.agents[3]->deliveries.at(0).at, sim::SimTime::millis(40));
}

TEST(Network, UnicastFollowsTreePath) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(20);
  NetFixture f(cfg);
  RecoveryAnnotation ann;
  ann.requestor = 3;
  f.network.unicast(3, make_exp_request_packet(3, 5, 0, 1, ann));
  f.sim.run();
  // Only node 5 receives it; 4 hops → 80 ms.
  EXPECT_EQ(f.agents[5]->deliveries.size(), 1u);
  EXPECT_EQ(f.agents[5]->deliveries.at(0).at, sim::SimTime::millis(80));
  EXPECT_TRUE(f.agents[0]->deliveries.empty());
  EXPECT_TRUE(f.agents[4]->deliveries.empty());
  EXPECT_EQ(f.network.crossings().unicast_of(PacketType::kExpRequest), 4u);
}

TEST(Network, UnicastToSelfDelivers) {
  NetFixture f;
  RecoveryAnnotation ann;
  f.network.unicast(3, make_exp_request_packet(3, 3, 0, 1, ann));
  f.sim.run();
  EXPECT_EQ(f.agents[3]->deliveries.size(), 1u);
}

TEST(Network, SubcastCoversOnlySubtree) {
  NetFixture f;
  RecoveryAnnotation ann;
  ann.turning_point = 1;
  // Replier 5 sends via turning point router 1: only 3 and 4 receive.
  f.network.unicast_subcast(5, 1, make_exp_reply_packet(5, 0, 1, ann));
  f.sim.run();
  EXPECT_EQ(f.agents[3]->deliveries.size(), 1u);
  EXPECT_EQ(f.agents[4]->deliveries.size(), 1u);
  EXPECT_TRUE(f.agents[5]->deliveries.empty());
  EXPECT_TRUE(f.agents[0]->deliveries.empty());
  // Unicast leg 5→1 is 3 hops; subcast below 1 is 2 links.
  EXPECT_EQ(f.network.crossings().unicast_of(PacketType::kExpReply), 3u);
  EXPECT_EQ(f.network.crossings().subcast_of(PacketType::kExpReply), 2u);
}

TEST(Network, SubcastFromOwnAttachmentNode) {
  NetFixture f;
  RecoveryAnnotation ann;
  // Source subcasts from the root: everyone below receives.
  f.network.unicast_subcast(0, 0, make_exp_reply_packet(0, 0, 1, ann));
  f.sim.run();
  for (NodeId n : {3, 4, 5})
    EXPECT_EQ(f.agents[n]->deliveries.size(), 1u) << "node " << n;
}

TEST(Network, DropFnBlocksSubtree) {
  NetFixture f;
  f.network.set_drop_fn([](const Packet& pkt, NodeId from, NodeId to) {
    return pkt.type == PacketType::kData && from == 0 && to == 1;
  });
  f.network.multicast(0, make_data_packet(0, 1));
  f.sim.run();
  EXPECT_TRUE(f.agents[3]->deliveries.empty());
  EXPECT_TRUE(f.agents[4]->deliveries.empty());
  EXPECT_EQ(f.agents[5]->deliveries.size(), 1u);
  EXPECT_EQ(f.network.crossings()
                .dropped[static_cast<std::size_t>(PacketType::kData)],
            1u);
}

TEST(Network, ReplyDeliveryAnnotatesTurningPoint) {
  NetFixture f;
  RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.replier = 5;
  f.network.multicast(5, make_reply_packet(5, 0, 1, ann));
  f.sim.run();
  // Turning point for receiver 3 of a reply from 5 is lca(5,3) = 0.
  ASSERT_EQ(f.agents[3]->deliveries.size(), 1u);
  EXPECT_EQ(f.agents[3]->deliveries.at(0).pkt.ann.turning_point, 0);
  // For receiver 4 likewise 0; for the source, lca(5,0) = 0.
  EXPECT_EQ(f.agents[4]->deliveries.at(0).pkt.ann.turning_point, 0);
}

TEST(Network, ReplyTurningPointWithinSubtree) {
  NetFixture f;
  RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.replier = 4;
  f.network.multicast(4, make_reply_packet(4, 0, 1, ann));
  f.sim.run();
  // lca(4,3) = 1: the reply "turned around" at router 1 for receiver 3.
  ASSERT_EQ(f.agents[3]->deliveries.size(), 1u);
  EXPECT_EQ(f.agents[3]->deliveries.at(0).pkt.ann.turning_point, 1);
}

TEST(Network, FullDuplexLinksDoNotCrossQueue) {
  // Opposite directions of a link have independent serialization queues:
  // simultaneous payloads 0→3 and 3→0 arrive as if alone on the wire.
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(10);
  NetFixture f(cfg);
  RecoveryAnnotation ann;
  Packet down = make_reply_packet(0, 0, 1, ann);
  down.dest = 3;
  Packet up = make_reply_packet(3, 0, 2, ann);
  up.dest = 0;
  f.network.unicast(0, down);
  f.network.unicast(3, up);
  f.sim.run();
  const double tx_ms = 1024.0 * 8.0 / 1.5e6 * 1000.0;
  const double expect_ms = 2 * (tx_ms + 10.0);  // 2 hops, no queueing
  ASSERT_EQ(f.agents[3]->deliveries.size(), 1u);
  ASSERT_EQ(f.agents[0]->deliveries.size(), 1u);
  EXPECT_NEAR(f.agents[3]->deliveries.at(0).at.to_millis(), expect_ms, 0.01);
  EXPECT_NEAR(f.agents[0]->deliveries.at(0).at.to_millis(), expect_ms, 0.01);
}

TEST(Network, DropFnSeesUpstreamCrossingsOfFloods) {
  // A flood from a leaf crosses links upstream; the drop function can
  // block that direction specifically (recovery-loss modelling needs it).
  NetFixture f;
  f.network.set_drop_fn([](const Packet& pkt, NodeId from, NodeId to) {
    // Block the upstream crossing 1 → 0 only.
    return pkt.type == PacketType::kRequest && from == 1 && to == 0;
  });
  f.network.multicast(3, make_request_packet(3, 0, 1, 0.0));
  f.sim.run();
  // Sibling 4 still hears it (1 → 4 is downstream of the flood)...
  EXPECT_EQ(f.agents[4]->deliveries.size(), 1u);
  // ...but nothing above router 1 does.
  EXPECT_TRUE(f.agents[0]->deliveries.empty());
  EXPECT_TRUE(f.agents[5]->deliveries.empty());
}

TEST(Network, AttachRejectsRoutersAndDuplicates) {
  sim::Simulator sim;
  const auto tree = small_tree();
  Network network(sim, tree, {});
  RecordingAgent router_agent(sim, 1);
  EXPECT_THROW(network.attach(1, &router_agent), util::CheckError);
  RecordingAgent a(sim, 3), b(sim, 3);
  network.attach(3, &a);
  EXPECT_THROW(network.attach(3, &b), util::CheckError);
}

TEST(Network, RejectsNonPositiveLinkDelay) {
  sim::Simulator sim;
  const auto tree = small_tree();
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::zero();
  EXPECT_THROW((Network{sim, tree, cfg}), util::CheckError);
  cfg.link_delay = sim::SimTime::millis(-5);
  EXPECT_THROW((Network{sim, tree, cfg}), util::CheckError);
}

TEST(Network, PathDelayIsSymmetricAndAdditive) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(20);
  NetFixture f(cfg);
  EXPECT_EQ(f.network.path_delay(3, 5), sim::SimTime::millis(80));
  EXPECT_EQ(f.network.path_delay(5, 3), sim::SimTime::millis(80));
  EXPECT_EQ(f.network.path_delay(0, 3), sim::SimTime::millis(40));
  EXPECT_EQ(f.network.path_delay(3, 3), sim::SimTime::zero());
}

// ------------------------------------------------- link state (faults) ----

TEST(Network, DownLinkDropsBothDirections) {
  NetFixture f;
  f.network.set_link_up(1, false);
  EXPECT_FALSE(f.network.link_up(1));
  // Downstream: a flood from the root is cut below link 1.
  f.network.multicast(0, make_data_packet(0, 0));
  f.sim.run();
  EXPECT_TRUE(f.agents[3]->deliveries.empty());
  EXPECT_TRUE(f.agents[4]->deliveries.empty());
  EXPECT_EQ(f.agents[5]->deliveries.size(), 1u);
  // Upstream: a flood from leaf 3 reaches sibling 4 through router 1 but
  // dies on the same down link before the root.
  f.network.multicast(3, make_request_packet(3, 0, 0, 0.0));
  f.sim.run();
  EXPECT_EQ(f.agents[4]->deliveries.size(), 1u);
  EXPECT_TRUE(f.agents[0]->deliveries.empty());
  EXPECT_EQ(f.network.crossings().dropped[static_cast<std::size_t>(
                PacketType::kRequest)],
            1u);
}

TEST(Network, LinkUpRestoresDelivery) {
  NetFixture f;
  f.network.set_link_up(1, false);
  f.network.multicast(0, make_data_packet(0, 0));
  f.sim.run();
  EXPECT_TRUE(f.agents[3]->deliveries.empty());
  // Heal the partition: traffic flows again, timing unchanged.
  f.network.set_link_up(1, true);
  const sim::SimTime healed = f.sim.now();
  f.network.multicast(0, make_data_packet(0, 1));
  f.sim.run();
  ASSERT_EQ(f.agents[3]->deliveries.size(), 1u);
  EXPECT_EQ(f.agents[3]->deliveries[0].pkt.seq, 1);
  EXPECT_GT(f.agents[3]->deliveries[0].at, healed);
}

TEST(Network, LinkStateRejectsNonLinks) {
  NetFixture f;
  EXPECT_THROW(f.network.set_link_up(0, false), util::CheckError);  // root
  EXPECT_THROW(f.network.set_link_up(99, false), util::CheckError);
  EXPECT_THROW(f.network.link_up(-1), util::CheckError);
}

TEST(Network, DownLinkBlocksSubcastLeg) {
  NetFixture f;
  f.network.set_link_up(1, false);
  // Router-assist delivery whose unicast leg crosses the down link: the
  // packet dies en route and no subcast happens.
  f.network.unicast_subcast(0, 1, make_data_packet(0, 0));
  f.sim.run();
  EXPECT_TRUE(f.agents[3]->deliveries.empty());
  EXPECT_TRUE(f.agents[4]->deliveries.empty());
}

// ------------------------------------------------ perturbation (faults) ----

TEST(Network, PerturbDuplicateDeliversTwice) {
  NetFixture f;
  f.network.set_perturb_fn([](const Packet& pkt, NodeId, NodeId) {
    Perturbation p;
    p.duplicate = pkt.type == PacketType::kData;
    return p;
  });
  f.network.multicast(0, make_data_packet(0, 0));
  f.sim.run();
  // Every crossing duplicates, so leaf 3 (2 hops) sees 1 + the copies
  // that fan out along its path; at least two deliveries must arrive.
  EXPECT_GE(f.agents[3]->deliveries.size(), 2u);
  EXPECT_GT(f.network.crossings()
                .duplicated[static_cast<std::size_t>(PacketType::kData)],
            0u);
}

TEST(Network, PerturbExtraDelayShiftsArrival) {
  NetworkConfig cfg;
  cfg.link_delay = sim::SimTime::millis(20);
  cfg.model_bandwidth = false;
  NetFixture f(cfg);
  f.network.set_perturb_fn([](const Packet&, NodeId, NodeId) {
    Perturbation p;
    p.extra_delay = sim::SimTime::millis(5);
    return p;
  });
  f.network.multicast(0, make_request_packet(0, 0, 0, 0.0));
  f.sim.run();
  // Two hops to node 3, each +5 ms jitter: 40 + 10 ms.
  ASSERT_EQ(f.agents[3]->deliveries.size(), 1u);
  EXPECT_EQ(f.agents[3]->deliveries[0].at, sim::SimTime::millis(50));
}

TEST(Network, PerturbNeverAppliesToDroppedPackets) {
  NetFixture f;
  std::size_t perturb_calls = 0;
  f.network.set_drop_fn(
      [](const Packet&, NodeId, NodeId) { return true; });
  f.network.set_perturb_fn([&](const Packet&, NodeId, NodeId) {
    ++perturb_calls;
    return Perturbation{};
  });
  f.network.multicast(0, make_data_packet(0, 0));
  f.sim.run();
  EXPECT_EQ(perturb_calls, 0u);
}

}  // namespace
}  // namespace cesrm::net
