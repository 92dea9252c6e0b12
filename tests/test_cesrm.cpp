// Unit and behavioral tests for CESRM: the recovery cache, expedition
// policies, and the expedited recovery scheme (requestor side, replier
// side, REORDER-DELAY, SRM fallback, router assistance).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/network.hpp"
#include "cesrm/cache.hpp"
#include "cesrm/cesrm_agent.hpp"
#include "cesrm/policy.hpp"
#include "net/topology_builder.hpp"
#include "recovery_records.hpp"
#include "util/check.hpp"

namespace cesrm::cesrm {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;

RecoveryTuple tuple(SeqNo seq, NodeId q, double dqs, NodeId r, double drq) {
  RecoveryTuple t;
  t.seq = seq;
  t.requestor = q;
  t.dist_requestor_source = dqs;
  t.replier = r;
  t.dist_replier_requestor = drq;
  return t;
}

// snapshot()-based lookups (the cache no longer exposes its storage).
bool cached(const RecoveryCache& cache, SeqNo seq) {
  for (const auto& t : cache.snapshot())
    if (t.seq == seq) return true;
  return false;
}

RecoveryTuple at(const RecoveryCache& cache, SeqNo seq) {
  for (const auto& t : cache.snapshot())
    if (t.seq == seq) return t;
  ADD_FAILURE() << "seq " << seq << " not cached";
  return {};
}

// ---------------------------------------------------------------- cache ----

TEST(RecoveryCache, InsertAndMostRecent) {
  RecoveryCache cache(4);
  EXPECT_TRUE(cache.empty());
  EXPECT_FALSE(cache.most_recent().has_value());
  EXPECT_TRUE(cache.update(tuple(5, 3, 0.02, 4, 0.01)));
  EXPECT_TRUE(cache.update(tuple(9, 3, 0.02, 0, 0.02)));
  EXPECT_TRUE(cache.update(tuple(7, 5, 0.02, 0, 0.02)));
  EXPECT_EQ(cache.size(), 3u);
  const auto recent = cache.most_recent();
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(recent->seq, 9);
  EXPECT_EQ(recent->replier, 0);
}

TEST(RecoveryCache, KeepsOptimalPairPerPacket) {
  RecoveryCache cache(4);
  cache.update(tuple(5, 3, 0.02, 4, 0.03));  // delay = 0.08
  // Worse pair for the same packet: rejected.
  EXPECT_FALSE(cache.update(tuple(5, 3, 0.02, 0, 0.05)));  // delay = 0.12
  EXPECT_EQ(at(cache, 5).replier, 4);
  // Better pair: replaces.
  EXPECT_TRUE(cache.update(tuple(5, 4, 0.01, 0, 0.01)));  // delay = 0.03
  EXPECT_EQ(at(cache, 5).requestor, 4);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RecoveryCache, RecoveryDelayObjective) {
  EXPECT_DOUBLE_EQ(tuple(0, 1, 0.02, 2, 0.03).recovery_delay(), 0.08);
}

TEST(RecoveryCache, EvictsLeastRecentPacketWhenFull) {
  RecoveryCache cache(2);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 3, 0.1, 0, 0.1));
  EXPECT_TRUE(cache.update(tuple(3, 4, 0.1, 0, 0.1)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cached(cache, 1));
  EXPECT_TRUE(cached(cache, 2));
  EXPECT_TRUE(cached(cache, 3));
}

TEST(RecoveryCache, IgnoresPacketsOlderThanEverythingCached) {
  RecoveryCache cache(2);
  cache.update(tuple(10, 3, 0.1, 0, 0.1));
  cache.update(tuple(11, 3, 0.1, 0, 0.1));
  EXPECT_FALSE(cache.update(tuple(4, 4, 0.1, 0, 0.1)));
  EXPECT_FALSE(cached(cache, 4));
}

TEST(RecoveryCache, CapacityOneBehavesLikeMostRecentSlot) {
  RecoveryCache cache(1);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 4, 0.1, 5, 0.1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.most_recent()->requestor, 4);
}

TEST(RecoveryCache, RejectsInvalidTuples) {
  RecoveryCache cache(2);
  EXPECT_THROW(cache.update(tuple(-1, 3, 0.1, 0, 0.1)), util::CheckError);
  RecoveryTuple bad = tuple(1, net::kInvalidNode, 0.1, 0, 0.1);
  EXPECT_THROW(cache.update(bad), util::CheckError);
  EXPECT_THROW(RecoveryCache(0), util::CheckError);
}

TEST(RecoveryCache, MostFrequentCountsPairs) {
  RecoveryCache cache(8);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 4, 0.1, 5, 0.1));
  cache.update(tuple(3, 3, 0.1, 0, 0.1));
  cache.update(tuple(4, 3, 0.1, 0, 0.1));
  const auto freq = cache.most_frequent();
  ASSERT_TRUE(freq.has_value());
  EXPECT_EQ(freq->requestor, 3);
  EXPECT_EQ(freq->replier, 0);
  EXPECT_EQ(freq->seq, 4);  // most recent occurrence of the winning pair
}

TEST(RecoveryCache, MostFrequentTieBreaksTowardRecent) {
  RecoveryCache cache(8);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 4, 0.1, 5, 0.1));
  const auto freq = cache.most_frequent();
  ASSERT_TRUE(freq.has_value());
  EXPECT_EQ(freq->requestor, 4);  // both count 1; seq 2 is newer
}

TEST(RecoveryCache, MostFrequentTieBrokenByExtraOccurrence) {
  RecoveryCache cache(8);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 4, 0.1, 5, 0.1));  // newer pair wins the 1-1 tie...
  cache.update(tuple(3, 3, 0.1, 0, 0.1));  // ...until (3,0) reaches count 2
  const auto freq = cache.most_frequent();
  ASSERT_TRUE(freq.has_value());
  EXPECT_EQ(freq->requestor, 3);
  EXPECT_EQ(freq->seq, 3);  // the winning pair's most recent occurrence
}

TEST(RecoveryCache, EvictionTriggersExactlyAtCapacity) {
  RecoveryCache cache(3);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 3, 0.1, 0, 0.1));
  EXPECT_EQ(cache.size(), 2u);  // below capacity: nothing evicted yet
  EXPECT_TRUE(cached(cache, 1));
  cache.update(tuple(3, 3, 0.1, 0, 0.1));
  EXPECT_EQ(cache.size(), 3u);  // the insert that *reaches* capacity keeps
  EXPECT_TRUE(cached(cache, 1));  // the oldest entry intact
  cache.update(tuple(4, 3, 0.1, 0, 0.1));
  EXPECT_EQ(cache.size(), 3u);  // one past capacity: oldest evicted, and
  EXPECT_FALSE(cached(cache, 1));  // size never exceeds capacity
  EXPECT_TRUE(cached(cache, 2));
}

TEST(RecoveryCache, OlderPacketsAcceptedWhileBelowCapacity) {
  // The ignore-older rule only applies to a *full* cache; while there is
  // room, an out-of-order (older) recovery is still worth caching.
  RecoveryCache cache(3);
  cache.update(tuple(10, 3, 0.1, 0, 0.1));
  EXPECT_TRUE(cache.update(tuple(4, 4, 0.1, 5, 0.1)));
  EXPECT_TRUE(cached(cache, 4));
  // Once full, a packet older than everything cached is ignored even if
  // its pair would be optimal.
  cache.update(tuple(11, 3, 0.1, 0, 0.1));
  EXPECT_FALSE(cache.update(tuple(2, 6, 0.0, 7, 0.0)));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cached(cache, 2));
  // But a reply for a packet *already cached* still improves in place.
  EXPECT_TRUE(cache.update(tuple(4, 6, 0.0, 7, 0.0)));
  EXPECT_EQ(at(cache, 4).requestor, 6);
}

// --------------------------------------------------------------- policy ----

TEST(Policy, SelectDispatches) {
  RecoveryCache cache(8);
  cache.update(tuple(1, 3, 0.1, 0, 0.1));
  cache.update(tuple(2, 4, 0.1, 5, 0.1));
  cache.update(tuple(3, 3, 0.1, 0, 0.1));
  EXPECT_EQ(select_pair(cache, ExpeditionPolicy::kMostRecent)->seq, 3);
  EXPECT_EQ(select_pair(cache, ExpeditionPolicy::kMostFrequent)->requestor, 3);
  RecoveryCache empty(1);
  EXPECT_FALSE(select_pair(empty, ExpeditionPolicy::kMostRecent).has_value());
}

TEST(Policy, NamesRoundTrip) {
  EXPECT_STREQ(policy_name(ExpeditionPolicy::kMostRecent), "most-recent");
  EXPECT_EQ(try_parse_policy("most-frequent"),
            ExpeditionPolicy::kMostFrequent);
  EXPECT_FALSE(try_parse_policy("nope").has_value());
}

TEST(Policy, TryParseReturnsNulloptOnTypos) {
  EXPECT_EQ(try_parse_policy("most-recent"), ExpeditionPolicy::kMostRecent);
  EXPECT_EQ(try_parse_policy("most-frequent"),
            ExpeditionPolicy::kMostFrequent);
  EXPECT_FALSE(try_parse_policy("most_recent").has_value());
  EXPECT_FALSE(try_parse_policy("").has_value());
}

TEST(Policy, ParseErrorListsValidValues) {
  // A CLI typo is refused, and the front end's message lists the
  // accepted spellings.
  EXPECT_FALSE(try_parse_policy("most_recent").has_value());
  EXPECT_STREQ(policy_names(), "most-recent, most-frequent");
}

// -------------------------------------------------------------- fixture ----

/// CESRM test bench on tree 0(1(3 4) 2(5)): source at 0, receivers 3/4/5,
/// 10 ms links, oracle distances, REORDER-DELAY 0 unless overridden.
struct CesrmBench {
  explicit CesrmBench(std::uint64_t seed = 1, CesrmConfig cfg = {}) {
    net::NetworkConfig ncfg;
    ncfg.link_delay = SimTime::millis(10);
    tree = std::make_unique<net::MulticastTree>(
        net::parse_tree("0(1(3 4) 2(5))"));
    network = std::make_unique<net::Network>(sim, *tree, ncfg);
    cfg.srm.oracle_distances = true;
    config = cfg;
    for (NodeId n : std::vector<NodeId>{0, 3, 4, 5}) {
      agents.push_back(std::make_unique<CesrmAgent>(
          sim, *network, n, 0, config,
          util::Rng(seed + static_cast<std::uint64_t>(n))));
    }
    network->set_drop_fn([this](const net::Packet& pkt, NodeId from,
                                NodeId to) {
      if (pkt.type != net::PacketType::kData) return false;
      return tree->parent(to) == from && drops.count({pkt.seq, to}) != 0;
    });
  }

  CesrmAgent& at(NodeId node) {
    for (auto& a : agents)
      if (a->node() == node) return *a;
    throw std::runtime_error("no agent");
  }

  void drop(SeqNo seq, NodeId child) { drops.insert({seq, child}); }

  void transmit(SeqNo n, SimTime period = SimTime::millis(80)) {
    for (SeqNo i = 0; i < n; ++i)
      sim.schedule_at(period * i, [this, i] { at(0).send_data(i); });
  }

  void run_for(SimTime t) { sim.run_until(sim.now() + t); }

  sim::Simulator sim;
  std::unique_ptr<net::MulticastTree> tree;
  std::unique_ptr<net::Network> network;
  CesrmConfig config;
  std::vector<std::unique_ptr<CesrmAgent>> agents;
  std::set<std::pair<SeqNo, NodeId>> drops;
};

// ------------------------------------------------------- requestor side ----

TEST(CesrmAgent, FirstLossRecoversViaSrmAndSeedsCache) {
  CesrmBench b;
  b.drop(0, 3);
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  const auto& stats = b.at(3).stats();
  ASSERT_EQ(stats.recoveries.size(), 1u);
  const auto recs = recovery_records(stats.recoveries);
  EXPECT_TRUE(recs[0].recovered);
  EXPECT_FALSE(recs[0].expedited);  // cache was empty
  EXPECT_EQ(stats.exp_requests_sent, 0u);
  // The reply seeded the cache with this host as requestor.
  ASSERT_FALSE(b.at(3).cache().empty());
  const auto cached = b.at(3).cache().most_recent();
  EXPECT_EQ(cached->seq, 0);
  EXPECT_EQ(cached->requestor, 3);
  EXPECT_NE(cached->replier, 3);
}

TEST(CesrmAgent, RepeatLossOnSameLinkRecoversExpedited) {
  CesrmBench b;
  b.drop(0, 3);
  b.drop(10, 3);  // same link, well after the first recovery completes
  b.transmit(12);
  b.run_for(SimTime::seconds(20));
  const auto& stats = b.at(3).stats();
  ASSERT_EQ(stats.recoveries.size(), 2u);
  const auto recs = recovery_records(stats.recoveries);
  EXPECT_FALSE(recs[0].expedited);
  EXPECT_TRUE(recs[1].expedited);
  EXPECT_EQ(stats.exp_requests_sent, 1u);
  // The expedited recovery is much faster than the SRM one: it skips the
  // C1·d̂hs ≥ 40 ms request delay entirely.
  EXPECT_LT(recs[1].latency_seconds(), recs[0].latency_seconds());
  // Expedited latency ≈ RTT(3, replier) + the reply's serialization time:
  // at most 2·20 ms propagation + 2·5.46 ms ≈ 51 ms, and always below the
  // C1·d̂hs = 40 ms minimum request delay plus reply-side delays of SRM.
  EXPECT_LT(recs[1].latency_seconds(), 0.055);
}

TEST(CesrmAgent, ExpeditedReplySuppressesSrmRequestsGroupWide) {
  CesrmBench b;
  b.drop(0, 1);   // warm both 3 and 4
  b.drop(10, 1);  // repeat on the shared link
  b.transmit(12);
  b.run_for(SimTime::seconds(20));
  // Episode 2: the expedited reply arrives before anyone's SRM request
  // timer (≥ 40 ms) fires, so the second episode adds no multicast
  // requests beyond episode 1's.
  std::uint64_t exp_recoveries = 0;
  for (NodeId n : {3, 4}) {
    const auto& stats = b.at(n).stats();
    ASSERT_EQ(stats.recoveries.size(), 2u) << "node " << n;
    const auto recs = recovery_records(stats.recoveries);
    EXPECT_TRUE(recs[1].recovered);
    exp_recoveries += recs[1].expedited ? 1 : 0;
  }
  // Both shared-loss receivers recover expedited from the one exp reply.
  EXPECT_EQ(exp_recoveries, 2u);
  const std::uint64_t total_exp_replies = b.at(0).stats().exp_replies_sent +
                                          b.at(5).stats().exp_replies_sent +
                                          b.at(3).stats().exp_replies_sent +
                                          b.at(4).stats().exp_replies_sent;
  EXPECT_EQ(total_exp_replies, 1u);
}

TEST(CesrmAgent, OnlyCachedRequestorExpedites) {
  CesrmBench b;
  b.drop(0, 3);   // warm only receiver 3's cache
  b.drop(10, 5);  // a loss at receiver 5, whose cache is empty
  b.transmit(12);
  b.run_for(SimTime::seconds(20));
  EXPECT_EQ(b.at(5).stats().exp_requests_sent, 0u);
  ASSERT_EQ(b.at(5).stats().recoveries.size(), 1u);
  EXPECT_FALSE(recovery_records(b.at(5).stats().recoveries)[0].expedited);
  EXPECT_TRUE(b.at(5).has_packet(10));
}

TEST(CesrmAgent, ReorderDelayDefersExpeditedRequest) {
  CesrmConfig cfg;
  cfg.reorder_delay = SimTime::millis(500);
  CesrmBench b(1, cfg);
  b.drop(0, 3);   // warm receiver 3 (recovers via SRM)
  b.drop(10, 1);  // shared loss: 4 recovers via SRM and its reply reaches 3
  b.transmit(12);
  b.run_for(SimTime::seconds(20));
  const auto& stats = b.at(3).stats();
  // 3's expedited request was armed but the SRM recovery (driven by 4's
  // request, ≤ ~160 ms) landed first: the request was cancelled.
  EXPECT_EQ(stats.exp_requests_sent, 0u);
  EXPECT_EQ(stats.exp_requests_cancelled, 1u);
  ASSERT_EQ(stats.recoveries.size(), 2u);
  const auto recs = recovery_records(stats.recoveries);
  EXPECT_TRUE(recs[1].recovered);
  EXPECT_FALSE(recs[1].expedited);
}

TEST(CesrmAgent, FallsBackToSrmWhenExpeditedFails) {
  CesrmBench b;
  b.drop(0, 3);  // warm receiver 3; cached replier is 0, 4, or 5
  // Now drop a packet everywhere except at... the cached replier too:
  // drop on links 1 and 2 → receivers 3, 4, 5 all lose; if the cached
  // replier was 4 or 5 the expedited recovery fails; if it was the source
  // it succeeds. Either way the packet must be recovered.
  b.drop(10, 1);
  b.drop(10, 2);
  b.transmit(12);
  b.run_for(SimTime::seconds(30));
  for (NodeId n : {3, 4, 5}) {
    EXPECT_TRUE(b.at(n).has_packet(10)) << "node " << n;
    EXPECT_EQ(b.at(n).outstanding_losses(), 0u);
  }
}

// --------------------------------------------------------- replier side ----

TEST(CesrmAgent, ReplierAnswersExpeditedRequestImmediately) {
  CesrmBench b;
  b.transmit(2);
  b.run_for(SimTime::seconds(2));  // everyone holds packets 0 and 1
  // Inject an expedited request 3 → 4 for packet 0.
  net::RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.02;
  ann.replier = 4;
  ann.dist_replier_requestor = 0.02;
  const SimTime sent_at = b.sim.now();
  b.network->unicast(3, net::make_exp_request_packet(3, 4, 0, 0, ann));
  b.run_for(SimTime::seconds(2));
  EXPECT_EQ(b.at(4).stats().exp_replies_sent, 1u);
  // The reply is multicast: node 5 observed it as well (duplicate).
  EXPECT_GE(b.at(5).stats().duplicate_replies_received, 1u);
  (void)sent_at;
}

TEST(CesrmAgent, ReplierStaysSilentWithoutThePacket) {
  CesrmBench b;
  b.drop(0, 1);  // 3 and 4 lose packet 0
  b.transmit(1);
  b.run_for(SimTime::millis(100));  // before any recovery
  net::RecoveryAnnotation ann;
  ann.requestor = 5;
  ann.replier = 4;
  b.network->unicast(5, net::make_exp_request_packet(5, 4, 0, 0, ann));
  b.run_for(SimTime::millis(200));
  EXPECT_EQ(b.at(4).stats().exp_replies_sent, 0u);
}

TEST(CesrmAgent, ReplierObservesAbstinenceBetweenExpeditedReplies) {
  CesrmBench b;
  b.transmit(2);
  b.run_for(SimTime::seconds(2));
  net::RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.02;
  ann.replier = 4;
  ann.dist_replier_requestor = 0.02;
  // Two back-to-back expedited requests for the same packet: the second
  // arrives within the reply abstinence period D3·d̂(4,3) = 30 ms.
  b.network->unicast(3, net::make_exp_request_packet(3, 4, 0, 0, ann));
  b.sim.schedule_in(SimTime::millis(25), [&b, ann] {
    b.network->unicast(3, net::make_exp_request_packet(3, 4, 0, 0, ann));
  });
  b.run_for(SimTime::seconds(2));
  EXPECT_EQ(b.at(4).stats().exp_replies_sent, 1u);
}

// -------------------------------------------------------- router assist ----

TEST(CesrmAgent, RouterAssistLocalizesExpeditedReplies) {
  CesrmConfig cfg;
  cfg.router_assist = true;
  CesrmBench b(1, cfg);
  b.drop(0, 3);
  b.drop(10, 3);
  b.transmit(12);
  b.run_for(SimTime::seconds(20));
  ASSERT_EQ(b.at(3).stats().recoveries.size(), 2u);
  const auto recs = recovery_records(b.at(3).stats().recoveries);
  EXPECT_TRUE(recs[1].recovered);
  EXPECT_TRUE(recs[1].expedited);
  // The expedited reply is localized when the cached turning point lies
  // below the root (replier in the same region); with a root turning
  // point CESRM falls back to multicast, which costs the same or less.
  // Either way, total exposure never exceeds one full multicast.
  const auto& crossings = b.network->crossings();
  EXPECT_EQ(recs[1].expedited, true);
  EXPECT_LE(crossings.unicast_of(net::PacketType::kExpReply) +
                crossings.subcast_of(net::PacketType::kExpReply) +
                crossings.multicast_of(net::PacketType::kExpReply),
            5u);
}

TEST(CesrmAgent, CacheTuplesCarryTurningPoints) {
  CesrmBench b;
  b.drop(0, 3);
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  const auto cached = b.at(3).cache().most_recent();
  ASSERT_TRUE(cached.has_value());
  // The network annotates every delivered reply with lca(replier, self).
  EXPECT_NE(cached->turning_point, net::kInvalidNode);
  EXPECT_TRUE(b.tree->is_ancestor(cached->turning_point, 3));
}

// ------------------------------------------------------------- guardrails --

TEST(CesrmAgent, SourceNeverCachesOrExpedites) {
  CesrmBench b;
  b.drop(0, 1);
  b.drop(5, 1);
  b.transmit(8);
  b.run_for(SimTime::seconds(20));
  EXPECT_TRUE(b.at(0).cache().empty());
  EXPECT_EQ(b.at(0).stats().exp_requests_sent, 0u);
  EXPECT_EQ(b.at(0).stats().losses_detected, 0u);
}

TEST(CesrmAgent, RepliesForPacketsNotLostDoNotTouchCache) {
  CesrmBench b;
  b.drop(0, 5);  // only receiver 5 loses
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  // Receivers 3 and 4 observed the reply but did not lose the packet.
  EXPECT_TRUE(b.at(3).cache().empty());
  EXPECT_TRUE(b.at(4).cache().empty());
  EXPECT_FALSE(b.at(5).cache().empty());
}

TEST(CesrmAgent, ReplyNamingARouterAsReplierNeverReachesTheCache) {
  // Router 1 is in the tree but runs no agent. A reply naming it as the
  // replier must not seed the cache, or the next loss on that link would
  // send its expedited request to a node that cannot answer.
  CesrmBench b;
  b.drop(0, 3);
  b.drop(10, 3);
  b.transmit(12);
  b.run_for(SimTime::millis(130));  // 3 has detected the loss of 0
  ASSERT_EQ(b.at(3).outstanding_losses(), 1u);
  net::RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.02;
  ann.replier = 1;
  ann.dist_replier_requestor = 0.01;
  b.network->multicast(1, net::make_reply_packet(1, 0, 0, ann));
  b.run_for(SimTime::millis(50));
  EXPECT_TRUE(b.at(3).has_packet(0));
  EXPECT_TRUE(b.at(3).cache().empty());

  // The next loss on that link recovers through SRM, whose reply then
  // seeds the cache with a member.
  b.run_for(SimTime::seconds(20));
  EXPECT_EQ(b.at(3).outstanding_losses(), 0u);
  EXPECT_EQ(b.at(3).stats().exp_requests_sent, 0u);
  ASSERT_FALSE(b.at(3).cache().empty());
  const NodeId replier = b.at(3).cache().most_recent()->replier;
  EXPECT_TRUE(b.tree->is_root(replier) || b.tree->is_leaf(replier));
}

TEST(CesrmAgent, RestoredTupleNamingARouterAsReplierIsDropped) {
  CesrmBench b;
  b.at(3).fail();
  b.at(3).restore_cache_tuple(0, tuple(5, 4, 0.02, /*router*/ 1, 0.01));
  EXPECT_TRUE(b.at(3).cache().empty());
  b.at(3).restore_cache_tuple(0, tuple(6, 4, 0.02, 4, 0.02));
  ASSERT_FALSE(b.at(3).cache().empty());
  EXPECT_EQ(b.at(3).cache().most_recent()->replier, 4);
}

// ---------------------------------------------------- membership churn ----

TEST(CesrmAgent, AdaptsWhenCachedReplierCrashes) {
  // §3.3: "when expedited recoveries fail, losses are still recovered by
  // SRM's recovery scheme", and the cache then evolves to a live pair.
  CesrmBench b;
  b.drop(0, 3);   // warm receiver 3's cache with some replier r
  b.drop(10, 3);  // expedited recovery (confirms the pair works)
  b.drop(20, 3);  // after the crash below: expedited may fail → SRM
  b.drop(30, 3);  // cache re-seeded → expedited again (or still fine)
  b.transmit(40);
  // Crash every member except the source and receiver 3 shortly after
  // packet 10's recovery completes — whatever replier was cached is gone
  // (unless it was the source, which cannot crash).
  b.sim.schedule_at(SimTime::millis(80 * 15), [&b] {
    b.at(4).fail();
    b.at(5).fail();
  });
  b.run_for(SimTime::seconds(60));
  const auto& stats = b.at(3).stats();
  // All four losses of receiver 3 recovered despite the churn.
  ASSERT_EQ(stats.recoveries.size(), 4u);
  for (const auto& r : stats.recoveries)
    EXPECT_TRUE(r.recovered) << "seq " << r.seq;
  EXPECT_EQ(b.at(3).outstanding_losses(), 0u);
  // The final loss recovered expeditiously again: the cache re-seeded
  // itself from the post-crash SRM recovery (replier can only be the
  // source now, which is alive).
  EXPECT_TRUE(recovery_records(stats.recoveries)[3].recovered);
}

TEST(CesrmAgent, FailedMemberGoesSilent) {
  CesrmBench b;
  b.drop(5, 1);  // a loss 3 and 4 share, after the crash below
  b.transmit(8);
  b.sim.schedule_at(SimTime::millis(100), [&b] { b.at(4).fail(); });
  b.run_for(SimTime::seconds(20));
  EXPECT_TRUE(b.at(4).failed());
  // The failed member sent nothing after the crash...
  EXPECT_EQ(b.at(4).stats().requests_sent, 0u);
  EXPECT_EQ(b.at(4).stats().replies_sent, 0u);
  // ...and never received packet 5 (it was deaf), while the live sharer
  // of the loss recovered normally.
  EXPECT_FALSE(b.at(4).has_packet(0, 5));
  EXPECT_TRUE(b.at(3).has_packet(0, 5));
  EXPECT_EQ(b.at(3).outstanding_losses(), 0u);
}

TEST(CesrmAgent, FailedMemberCannotTransmit) {
  CesrmBench b;
  b.at(4).fail();
  EXPECT_THROW(b.at(4).send_data(0), util::CheckError);
}

// ------------------------------------------------- per-source caches ----

TEST(CesrmAgent, PerSourceCachesAreIndependent) {
  CesrmBench b;
  // Stream 0 (primary): loss at receiver 3. Stream 5: loss at receiver 3
  // as well (drop on its leaf link for the second stream's packet 0).
  b.drop(0, 3);
  b.transmit(3);
  b.network->set_drop_fn([&b](const net::Packet& pkt, NodeId from,
                              NodeId to) {
    if (pkt.type != net::PacketType::kData) return false;
    if (pkt.source == 0)
      return b.tree->parent(to) == from && b.drops.count({pkt.seq, to}) != 0;
    return pkt.source == 5 && pkt.seq == 0 && to == 3;
  });
  b.sim.schedule_at(SimTime::millis(20), [&b] { b.at(5).send_data(0); });
  b.sim.schedule_at(SimTime::millis(100), [&b] { b.at(5).send_data(1); });
  b.run_for(SimTime::seconds(15));
  // Receiver 3 recovered losses on both streams and holds one cache per
  // source, each seeded from that stream's recovery only.
  EXPECT_TRUE(b.at(3).has_packet(0, 0));
  EXPECT_TRUE(b.at(3).has_packet(5, 0));
  EXPECT_FALSE(b.at(3).cache(0).empty());
  EXPECT_FALSE(b.at(3).cache(5).empty());
  EXPECT_EQ(b.at(3).cache(0).most_recent()->seq, 0);
  EXPECT_EQ(b.at(3).cache(5).most_recent()->seq, 0);
  // A receiver that lost neither stream has empty caches for both.
  EXPECT_TRUE(b.at(4).cache(0).empty());
  EXPECT_TRUE(b.at(4).cache(5).empty());
}

TEST(CesrmAgent, DeterministicForIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    CesrmBench b(seed);
    for (SeqNo i = 5; i < 20; ++i) b.drop(i, 1);
    b.drop(3, 5);
    b.drop(22, 5);
    b.transmit(30);
    b.run_for(SimTime::seconds(30));
    std::vector<std::uint64_t> sig;
    for (auto& a : b.agents) {
      sig.push_back(a->stats().requests_sent);
      sig.push_back(a->stats().exp_requests_sent);
      sig.push_back(a->stats().exp_replies_sent);
      sig.push_back(a->stats().replies_sent);
    }
    return sig;
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace cesrm::cesrm
