// Tests for the application-facing api:: facade: group/session lifecycle,
// ALF vs ordered delivery, many-to-many streams, loss recovery through the
// facade, and failure handling.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "api/session.hpp"
#include "net/topology_builder.hpp"
#include "util/check.hpp"

namespace cesrm::api {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;

std::shared_ptr<const net::MulticastTree> small_tree() {
  return std::make_shared<net::MulticastTree>(
      net::parse_tree("0(1(3 4) 2(5))"));
}

TEST(MulticastGroup, JoinAndLookup) {
  MulticastGroup group(small_tree());
  auto& a = group.join(0);
  auto& b = group.join(3);
  EXPECT_EQ(a.node(), 0);
  EXPECT_EQ(b.node(), 3);
  EXPECT_EQ(&group.at(3), &b);
  EXPECT_THROW(group.at(4), util::CheckError);
  EXPECT_THROW(group.join(3), util::CheckError);  // double join
  EXPECT_THROW(group.join(1), util::CheckError);  // router position
}

TEST(MulticastSession, LosslessDeliveryToAllOtherMembers) {
  MulticastGroup group(small_tree());
  std::map<NodeId, std::vector<Adu>> delivered;
  for (NodeId n : {0, 3, 4, 5}) {
    auto& s = group.join(n);
    s.set_delivery_handler(
        [&delivered, n](const Adu& adu) { delivered[n].push_back(adu); });
  }
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
    group.at(0).send();
  });
  group.run_for(SimTime::seconds(5));
  EXPECT_TRUE(delivered[0].empty());  // no self-delivery
  for (NodeId n : {3, 4, 5}) {
    ASSERT_EQ(delivered[n].size(), 2u) << "node " << n;
    EXPECT_EQ(delivered[n][0].source, 0);
    EXPECT_EQ(delivered[n][0].seq, 0);
    EXPECT_EQ(delivered[n][1].seq, 1);
    EXPECT_GT(delivered[n][0].delivered_at, SimTime::seconds(2));
    EXPECT_EQ(group.at(n).delivered_count(), 2u);
  }
}

TEST(MulticastSession, SendReturnsConsecutiveSequenceNumbers) {
  MulticastGroup group(small_tree());
  auto& s = group.join(0);
  group.simulator().schedule_in(SimTime::seconds(1), [&s] {
    EXPECT_EQ(s.send(), 0);
    EXPECT_EQ(s.send(), 1);
    EXPECT_EQ(s.send(), 2);
  });
  group.run_for(SimTime::seconds(2));
}

TEST(MulticastSession, RecoversLossesTransparently) {
  MulticastGroup group(small_tree());
  // Drop data packet 0 of stream 0 on the link into receiver 3.
  group.set_drop_fn([](const net::Packet& pkt, NodeId, NodeId to) {
    return pkt.type == net::PacketType::kData && pkt.source == 0 &&
           pkt.seq == 0 && to == 3;
  });
  std::vector<Adu> delivered;
  for (NodeId n : {0, 3, 4, 5}) group.join(n);
  group.at(3).set_delivery_handler(
      [&delivered](const Adu& adu) { delivered.push_back(adu); });
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
  });
  group.simulator().schedule_in(SimTime::seconds(2) + SimTime::millis(80),
                                [&group] { group.at(0).send(); });
  group.run_for(SimTime::seconds(10));
  // ALF delivery: packet 1 arrives first, then the repaired packet 0.
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].seq, 1);
  EXPECT_EQ(delivered[1].seq, 0);
  EXPECT_TRUE(group.at(3).has(0, 0));
}

TEST(MulticastSession, OrderedDeliveryHoldsBackGaps) {
  MulticastGroup group(small_tree());
  group.set_drop_fn([](const net::Packet& pkt, NodeId, NodeId to) {
    return pkt.type == net::PacketType::kData && pkt.seq == 0 && to == 3;
  });
  SessionConfig ordered;
  ordered.ordered_delivery = true;
  for (NodeId n : {0, 4, 5}) group.join(n);
  auto& s = group.join(3, ordered);
  std::vector<SeqNo> seqs;
  s.set_delivery_handler(
      [&seqs](const Adu& adu) { seqs.push_back(adu.seq); });
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
  });
  group.simulator().schedule_in(SimTime::seconds(2) + SimTime::millis(80),
                                [&group] { group.at(0).send(); });
  group.run_for(SimTime::seconds(10));
  // Despite packet 1 arriving before the repair of 0, the application saw
  // them in order.
  EXPECT_EQ(seqs, (std::vector<SeqNo>{0, 1}));
}

TEST(MulticastSession, ManyToManyStreams) {
  MulticastGroup group(small_tree());
  std::map<NodeId, std::uint64_t> count;
  for (NodeId n : {0, 3, 4, 5}) {
    auto& s = group.join(n);
    s.set_delivery_handler(
        [&count, n](const Adu&) { ++count[n]; });
  }
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    for (NodeId n : {0, 3, 4, 5}) group.at(n).send();
  });
  group.run_for(SimTime::seconds(5));
  // Each member delivered the three ADUs of the other members.
  for (NodeId n : {0, 3, 4, 5}) EXPECT_EQ(count[n], 3u) << "node " << n;
}

TEST(MulticastSession, SrmTransportAlsoWorks) {
  MulticastGroup group(small_tree());
  SessionConfig srm_cfg;
  srm_cfg.protocol = Protocol::kSrm;
  group.set_drop_fn([](const net::Packet& pkt, NodeId, NodeId to) {
    return pkt.type == net::PacketType::kData && pkt.seq == 0 && to == 5;
  });
  for (NodeId n : {0, 3, 4, 5}) group.join(n, srm_cfg);
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
  });
  group.simulator().schedule_in(SimTime::seconds(2) + SimTime::millis(80),
                                [&group] { group.at(0).send(); });
  group.run_for(SimTime::seconds(10));
  EXPECT_TRUE(group.at(5).has(0, 0));  // repaired via plain SRM
  EXPECT_EQ(group.at(5).transport_stats().exp_requests_sent, 0u);
}

TEST(MulticastSession, FailedMemberStopsDelivering) {
  MulticastGroup group(small_tree());
  for (NodeId n : {0, 3, 4, 5}) group.join(n);
  std::uint64_t before_fail = 0;
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
  });
  group.simulator().schedule_in(SimTime::seconds(3), [&group, &before_fail] {
    before_fail = group.at(3).delivered_count();
    group.at(3).fail();
  });
  group.simulator().schedule_in(SimTime::seconds(4), [&group] {
    group.at(0).send();
  });
  group.run_for(SimTime::seconds(8));
  EXPECT_EQ(before_fail, 1u);
  EXPECT_EQ(group.at(3).delivered_count(), 1u);  // nothing after the crash
  EXPECT_EQ(group.at(4).delivered_count(), 2u);
}

TEST(MulticastSession, TransportStatsExposed) {
  MulticastGroup group(small_tree());
  group.set_drop_fn([](const net::Packet& pkt, NodeId, NodeId to) {
    return pkt.type == net::PacketType::kData && pkt.seq == 0 && to == 3;
  });
  for (NodeId n : {0, 3, 4, 5}) group.join(n);
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
  });
  group.simulator().schedule_in(SimTime::seconds(2) + SimTime::millis(80),
                                [&group] { group.at(0).send(); });
  group.run_for(SimTime::seconds(10));
  const auto& stats = group.at(3).transport_stats();
  EXPECT_EQ(stats.losses_detected, 1u);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  EXPECT_TRUE(stats.recoveries[0].recovered);
  EXPECT_GE(group.at(0).transport_stats().data_sent, 2u);
}

TEST(MulticastSession, CacheStatsExposedPerPolicy) {
  MulticastGroup group(small_tree());
  group.set_drop_fn([](const net::Packet& pkt, NodeId, NodeId to) {
    return pkt.type == net::PacketType::kData && pkt.seq == 0 && to == 3;
  });
  SessionConfig sharded_cfg;
  sharded_cfg.cesrm.cache.policy = cesrm::CachePolicyKind::kSharded;
  SessionConfig srm_cfg;
  srm_cfg.protocol = Protocol::kSrm;
  group.join(0);
  group.join(3, sharded_cfg);
  group.join(4, srm_cfg);
  group.join(5);
  group.simulator().schedule_in(SimTime::seconds(2), [&group] {
    group.at(0).send();
  });
  group.simulator().schedule_in(SimTime::seconds(2) + SimTime::millis(80),
                                [&group] { group.at(0).send(); });
  group.run_for(SimTime::seconds(10));
  // The CESRM member consulted its cache once per detected loss.
  const auto cache = group.at(3).cache_stats();
  EXPECT_EQ(cache.hits + cache.misses,
            group.at(3).transport_stats().losses_detected);
  EXPECT_GE(cache.hits + cache.misses, 1u);
  // SRM members have no cache: all counters stay zero.
  const auto none = group.at(4).cache_stats();
  EXPECT_EQ(none.hits + none.misses + none.insertions + none.evictions, 0u);
}

}  // namespace
}  // namespace cesrm::api
