// Scale-path suites: hierarchical session aggregation (bit-exact against
// the flat O(N²) reference), struct-of-arrays ReceiverBlock semantics,
// O(tree) session-packet growth, per-receiver memory accounting, shard-count
// invariance of the whole run_scale path, and the sharded engine it runs
// on.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "harness/scale.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/topology_builder.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "srm/receiver_block.hpp"
#include "srm/session_aggregate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm {
namespace {

// ------------------------------------------- session aggregation fold ----

srm::SessionSummary random_summary(util::Rng& rng) {
  srm::SessionSummary s;
  s.members = rng.uniform_int(1, 500);
  s.min_horizon = rng.uniform_int(0, 1000);
  s.max_horizon = s.min_horizon + static_cast<std::uint64_t>(
                                      rng.uniform_int(0, 1000));
  s.outstanding = rng.uniform_int(0, 50);
  s.rtt_sum_ns = rng.uniform_int(0, 1000000000);
  s.rtt_max_ns = rng.uniform_int(0, 1000000000);
  return s;
}

class AggregateProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregateProperty, HierarchicalFoldMatchesFlatReferenceBitExact) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  net::TreeShape shape;
  shape.receivers = 3 + seed % 14;
  shape.depth = 2 + seed % 5;
  const auto tree = net::build_random_tree(shape, rng);
  std::vector<srm::SessionSummary> leaf(tree.size());
  for (net::NodeId v : tree.receivers())
    leaf[static_cast<std::size_t>(v)] = random_summary(rng);

  const auto fast = srm::aggregate_up(tree, leaf);
  const auto slow = srm::flat_reference(tree, leaf);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t v = 0; v < fast.size(); ++v)
    EXPECT_EQ(fast[v], slow[v]) << "node " << v;

  // The root covers everybody, exactly.
  std::uint64_t members = 0;
  for (const auto& s : leaf) members += s.members;
  EXPECT_EQ(fast[static_cast<std::size_t>(tree.root())].members, members);

  // Aggregated session cost is O(tree); flat is members × links.
  EXPECT_EQ(srm::aggregated_session_packets(tree),
            static_cast<std::uint64_t>(tree.link_count()));
  EXPECT_EQ(srm::flat_session_packets(tree, members),
            members * static_cast<std::uint64_t>(tree.link_count()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateProperty,
                         ::testing::Range(1, 13));

TEST(SessionSummary, MergeIsCommutativeAssociativeWithIdentity) {
  util::Rng rng(7);
  const auto a = random_summary(rng);
  const auto b = random_summary(rng);
  const auto c = random_summary(rng);
  EXPECT_EQ(merge(a, b), merge(b, a));
  EXPECT_EQ(merge(merge(a, b), c), merge(a, merge(b, c)));
  EXPECT_EQ(merge(a, srm::SessionSummary{}), a);
  EXPECT_EQ(merge(srm::SessionSummary{}, a), a);
}

// ------------------------------------------------ ReceiverBlock basics ----

TEST(ReceiverBlock, LosslessMembersTrackTheStreamInTwoWords) {
  util::Rng rng(3);
  net::TreeShape shape;
  shape.receivers = 4;
  shape.depth = 3;
  const auto tree = net::build_random_tree(shape, rng);
  sim::Simulator sim;
  net::Network network(sim, tree, {});
  srm::ReceiverBlockConfig bc;
  bc.members = 8;
  bc.member_loss = 0.0;
  srm::ReceiverBlock block(sim, network, tree.receivers()[0], tree.root(),
                           bc, 42);
  for (net::SeqNo s = 0; s < 100; ++s)
    network.multicast(tree.root(), net::make_data_packet(tree.root(), s));
  sim.run();
  EXPECT_EQ(block.losses(), 0u);
  EXPECT_EQ(block.outstanding(), 0u);
  EXPECT_EQ(block.requests_sent(), 0u);
  const auto s = block.summary();
  EXPECT_EQ(s.members, 8u);
  EXPECT_EQ(s.min_horizon, 100u);  // every member past the full stream
  EXPECT_EQ(s.max_horizon, 100u);
  // Two machine words per member.
  EXPECT_EQ(block.state_bytes(), 8u * 16u);
}

TEST(ReceiverBlock, LossyMembersRecoverEverythingViaBlockRequests) {
  for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
    harness::ScaleConfig cfg;
    cfg.protocol = protocol;
    cfg.receivers = 400;
    cfg.block_members = 50;
    cfg.tree_depth = 3;
    cfg.packets = 120;
    cfg.member_loss = 0.05;
    cfg.seed = 9;
    const auto r = harness::run_scale(cfg);
    EXPECT_GT(r.losses, 0u) << protocol_name(protocol);
    EXPECT_EQ(r.recovered, r.losses) << protocol_name(protocol);
    EXPECT_EQ(r.outstanding, 0u) << protocol_name(protocol);
    EXPECT_EQ(r.window_overflows, 0u) << protocol_name(protocol);
    EXPECT_GT(r.requests_sent, 0u);
    EXPECT_GT(r.recovery_p99_ns, 0);
    EXPECT_GE(r.recovery_p99_ns, r.recovery_p50_ns);
    EXPECT_EQ(r.root_summary.members, 400u);
    EXPECT_EQ(r.root_summary.min_horizon, 120u);
    EXPECT_EQ(r.root_summary.outstanding, 0u);
  }
}

TEST(ReceiverBlock, ExpeditedCacheBeatsColdSrmBackoff) {
  harness::ScaleConfig cfg;
  cfg.receivers = 400;
  cfg.block_members = 50;
  cfg.tree_depth = 3;
  cfg.packets = 150;
  cfg.member_loss = 0.05;
  cfg.seed = 11;
  cfg.protocol = Protocol::kSrm;
  const auto srm_run = harness::run_scale(cfg);
  cfg.protocol = Protocol::kCesrm;
  const auto cesrm_run = harness::run_scale(cfg);
  // The cached expedited path must shorten the tail, as §3 claims.
  EXPECT_LT(cesrm_run.recovery_p99_ns, srm_run.recovery_p99_ns);
}

// ----------------------------------------------- session cost is O(N) ----

TEST(SessionScaling, AggregatedCostIndependentOfMembersPerBlock) {
  harness::ScaleConfig cfg;
  cfg.receivers = 800;
  cfg.block_members = 50;  // 16 blocks
  cfg.tree_depth = 4;
  cfg.packets = 60;
  cfg.member_loss = 0.0;
  cfg.seed = 5;
  const auto small = harness::run_scale(cfg);
  cfg.receivers = 1600;  // same 16 blocks, twice the members behind each
  cfg.block_members = 100;
  const auto big = harness::run_scale(cfg);
  ASSERT_EQ(small.blocks, big.blocks);
  ASSERT_EQ(small.tree_nodes, big.tree_nodes);
  // Doubling the population does not add one session crossing under
  // aggregation; flat SRM's cost doubles.
  EXPECT_EQ(small.session_crossings, big.session_crossings);
  EXPECT_GT(small.session_crossings, 0u);
  EXPECT_EQ(big.flat_session_crossings, 2 * small.flat_session_crossings);
}

TEST(SessionScaling, AggregatedCostGrowsLinearlyWithTheTree) {
  harness::ScaleConfig cfg;
  cfg.receivers = 800;
  cfg.block_members = 50;  // 16 blocks
  cfg.tree_depth = 4;
  cfg.packets = 60;
  cfg.member_loss = 0.0;
  cfg.seed = 5;
  const auto small = harness::run_scale(cfg);
  cfg.receivers = 3200;  // 64 blocks: 4x the leaves
  const auto big = harness::run_scale(cfg);
  ASSERT_EQ(big.blocks, 4 * small.blocks);
  // Per block per round, the aggregated cost is the leaf's unicast path
  // length — bounded by the (fixed) tree depth, so the total grows
  // linearly in the block count, not quadratically in the population.
  const double per_round_small =
      static_cast<double>(small.session_crossings) /
      static_cast<double>(small.session_rounds);
  const double per_round_big = static_cast<double>(big.session_crossings) /
                               static_cast<double>(big.session_rounds);
  EXPECT_LE(per_round_big, per_round_small * 1.5)
      << "per-block session cost must stay depth-bounded";
}

// ------------------------------------------------- memory accounting ----

TEST(ScaleMemory, MemberStateStaysUnder100BytesPerReceiver) {
  harness::ScaleConfig cfg;
  cfg.receivers = 10000;
  cfg.block_members = 100;
  cfg.tree_depth = 5;
  cfg.packets = 30;
  cfg.member_loss = 0.01;
  cfg.seed = 2;
  const auto r = harness::run_scale(cfg);
  EXPECT_LE(r.bytes_per_receiver, 100.0);
  EXPECT_GT(r.bytes_per_receiver, 0.0);
  EXPECT_EQ(r.receivers, 10000u);
}

// ------------------------------------------- shard-count invariance ----

std::string scale_fingerprint(const harness::ScaleResult& r) {
  std::ostringstream os;
  os << r.receivers << " " << r.blocks << " " << r.tree_nodes << " "
     << r.events_executed << " " << r.losses << " " << r.recovered << " "
     << r.outstanding << " " << r.window_overflows << " " << r.requests_sent
     << " " << r.recovery_p50_ns << " " << r.recovery_p99_ns << " "
     << r.session_rounds << " " << r.session_crossings << " "
     << r.flat_session_crossings << " " << r.member_state_bytes << " rs:"
     << r.root_summary.members << "/" << r.root_summary.min_horizon << "/"
     << r.root_summary.max_horizon << "/" << r.root_summary.outstanding
     << "/" << r.root_summary.rtt_sum_ns << "/" << r.root_summary.rtt_max_ns;
  return os.str();
}

TEST(ScaleSharding, ResultsIdenticalForEveryShardCount) {
  for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
    harness::ScaleConfig cfg;
    cfg.protocol = protocol;
    cfg.receivers = 2000;
    cfg.block_members = 50;  // 40 blocks
    cfg.tree_depth = 4;
    cfg.packets = 80;
    cfg.member_loss = 0.03;
    cfg.seed = 17;
    cfg.shards = 1;
    const std::string want = scale_fingerprint(harness::run_scale(cfg));
    for (int shards : {2, 4}) {
      cfg.shards = shards;
      EXPECT_EQ(want, scale_fingerprint(harness::run_scale(cfg)))
          << "protocol=" << protocol_name(protocol) << " shards=" << shards;
    }
  }
}

TEST(ScaleSharding, RejectsFewerThanOneShard) {
  harness::ScaleConfig cfg;
  cfg.receivers = 100;
  cfg.block_members = 50;
  cfg.tree_depth = 3;
  cfg.packets = 10;
  for (int shards : {0, -1}) {
    cfg.shards = shards;
    EXPECT_THROW(harness::run_scale(cfg), util::CheckError)
        << "shards=" << shards;
  }
}

// --------------------------------------------------- engine unit tests ----

TEST(ShardedEngine, WindowsAdvanceAndMailboxesDeliver) {
  // Two locations on two shards exchanging ping-pong events at exactly the
  // lookahead spacing: every hop crosses shards through a mailbox.
  sim::ShardedEngine engine({0, 1}, 2, sim::SimTime::millis(20));
  int pings = 0;
  std::function<void(int, int)> hop = [&](int from, int count) {
    if (count == 0) return;
    ++pings;
    const int to = 1 - from;
    engine.schedule_from(
        from, to, engine.sim(from).now() + sim::SimTime::millis(20),
        [&hop, to, count] { hop(to, count - 1); });
  };
  engine.sim(0).schedule_at(sim::SimTime::millis(1), [&hop] { hop(0, 50); });
  engine.run_until(sim::SimTime::seconds(5));
  EXPECT_EQ(pings, 50);
  EXPECT_GT(engine.windows_run(), 0u);
  EXPECT_EQ(engine.cross_shard_posts(), 50u);
  EXPECT_EQ(engine.sim(0).now(), sim::SimTime::seconds(5));
  EXPECT_EQ(engine.sim(1).now(), sim::SimTime::seconds(5));
}

TEST(ShardedEngine, RejectsPastCrossShardPosts) {
  sim::ShardedEngine engine({0, 1}, 2, sim::SimTime::millis(20));
  engine.sim(0).schedule_at(sim::SimTime::millis(5), [&engine] {
    // A cross-shard event inside the current window would violate the
    // lookahead contract; the engine must refuse rather than misorder.
    EXPECT_THROW(engine.schedule_from(0, 1, engine.sim(0).now(),
                                      [] {}),
                 util::CheckError);
  });
  engine.run_until(sim::SimTime::millis(10));
}

}  // namespace
}  // namespace cesrm
