// Unit and behavioral tests for the SRM protocol agent: loss detection,
// request/reply scheduling and suppression, abstinence periods, session
// distance estimation, and recovery completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "recovery_records.hpp"
#include "srm/session.hpp"
#include "srm/srm_agent.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::srm {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;

// ---------------------------------------------------------- DistanceTable --

TEST(DistanceTable, EchoClosesTheLoop) {
  DistanceTable b(/*self=*/2);
  // Peer 1 echoes our session message: we stamped 100 ms, it held 20 ms,
  // we hear the echo at 160 ms → RTT 40 ms → one-way 20 ms.
  net::SessionPayload payload;
  payload.stamp = SimTime::millis(140);
  payload.echoes = {{2, SimTime::millis(100), SimTime::millis(20)}};
  b.on_session(1, payload, SimTime::millis(160));
  EXPECT_TRUE(b.has_estimate(1));
  EXPECT_DOUBLE_EQ(b.distance(1), 0.020);
}

TEST(DistanceTable, ForeignEchoesIgnored) {
  DistanceTable b(2);
  net::SessionPayload payload;
  payload.stamp = SimTime::millis(50);
  payload.echoes = {{7, SimTime::millis(10), SimTime::millis(5)}};
  b.on_session(1, payload, SimTime::millis(60));
  EXPECT_FALSE(b.has_estimate(1));
  EXPECT_DOUBLE_EQ(b.distance(1, 0.5), 0.5);  // fallback
}

TEST(DistanceTable, BuildEchoesReflectsHeardPeers) {
  DistanceTable b(2);
  net::SessionPayload p1;
  p1.stamp = SimTime::millis(100);
  b.on_session(1, p1, SimTime::millis(130));
  net::SessionPayload p3;
  p3.stamp = SimTime::millis(110);
  b.on_session(3, p3, SimTime::millis(140));
  const auto echoes = b.build_echoes(SimTime::millis(200));
  ASSERT_EQ(echoes.size(), 2u);
  EXPECT_EQ(echoes[0].peer, 1);
  EXPECT_EQ(echoes[0].peer_stamp, SimTime::millis(100));
  EXPECT_EQ(echoes[0].hold, SimTime::millis(70));
  EXPECT_EQ(echoes[1].peer, 3);
  EXPECT_EQ(echoes[1].hold, SimTime::millis(60));
}

TEST(DistanceTable, NegativeRttIgnored) {
  DistanceTable b(2);
  net::SessionPayload payload;
  payload.stamp = SimTime::millis(100);
  // hold > elapsed → negative RTT (clock artefact): must be dropped.
  payload.echoes = {{2, SimTime::millis(100), SimTime::millis(500)}};
  b.on_session(1, payload, SimTime::millis(200));
  EXPECT_FALSE(b.has_estimate(1));
}

// ------------------------------------------------------------- fixture ----

/// Small deterministic SRM test bench on tree 0(1(3 4) 2(5)): source at 0,
/// receivers at 3, 4, 5; 10 ms links; oracle distances (no session traffic
/// unless a test starts it).
struct SrmBench {
  explicit SrmBench(std::uint64_t seed = 1,
                    SimTime link_delay = SimTime::millis(10),
                    bool oracle = true) {
    net::NetworkConfig ncfg;
    ncfg.link_delay = link_delay;
    tree = std::make_unique<net::MulticastTree>(
        net::parse_tree("0(1(3 4) 2(5))"));
    network = std::make_unique<net::Network>(sim, *tree, ncfg);
    config.oracle_distances = oracle;
    for (NodeId n : std::vector<NodeId>{0, 3, 4, 5}) {
      agents.push_back(std::make_unique<SrmAgent>(
          sim, *network, n, 0, config, util::Rng(seed + static_cast<std::uint64_t>(n))));
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

  /// Drops data packet `seq` on the link into `child`.
  void drop(SeqNo seq, NodeId child) { drops.insert({seq, child}); }

  /// Schedules `n` data packets at `period` starting at `start`.
  void transmit(SeqNo n, SimTime period = SimTime::millis(80),
                SimTime start = SimTime::zero()) {
    for (SeqNo i = 0; i < n; ++i)
      sim.schedule_at(start + period * i, [this, i] { at(0).send_data(i); });
  }

  void run_for(SimTime t) { sim.run_until(sim.now() + t); }

  sim::Simulator sim;
  std::unique_ptr<net::MulticastTree> tree;
  std::unique_ptr<net::Network> network;
  SrmConfig config;
  std::vector<std::unique_ptr<SrmAgent>> agents;
  std::set<std::pair<SeqNo, NodeId>> drops;
};

// ------------------------------------------------------------ behaviour ----

TEST(SrmAgent, LosslessTransmissionGeneratesNoRecoveryTraffic) {
  SrmBench b;
  b.transmit(10);
  b.run_for(SimTime::seconds(10));
  for (auto& a : b.agents) {
    EXPECT_EQ(a->stats().losses_detected, 0u);
    EXPECT_EQ(a->stats().requests_sent, 0u);
    EXPECT_EQ(a->stats().replies_sent, 0u);
  }
  for (NodeId n : {3, 4, 5})
    for (SeqNo i = 0; i < 10; ++i)
      EXPECT_TRUE(b.at(n).has_packet(i)) << "node " << n << " seq " << i;
}

TEST(SrmAgent, GapDetectionTriggersRecovery) {
  SrmBench b;
  b.drop(0, 3);  // receiver 3 loses packet 0
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  const auto& stats = b.at(3).stats();
  EXPECT_EQ(stats.losses_detected, 1u);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  const auto rec = recovery_records(stats.recoveries)[0];
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.seq, 0);
  EXPECT_FALSE(rec.expedited);
  EXPECT_GT(rec.recover_time, rec.detect_time);
  EXPECT_TRUE(b.at(3).has_packet(0));
  EXPECT_EQ(b.at(3).outstanding_losses(), 0u);
}

TEST(SrmAgent, DetectionTimeIsArrivalOfNextPacket) {
  SrmBench b;
  b.drop(0, 3);
  b.transmit(2, SimTime::millis(80));
  b.run_for(SimTime::seconds(10));
  const auto rec = recovery_records(b.at(3).stats().recoveries).at(0);
  // Packet 1 sent at t=80 ms arrives at 3 after 2 hops:
  // 2 × (serialization ≈5.46 ms + 10 ms). Detection == that arrival.
  const double tx_ms = 1024.0 * 8.0 / 1.5e6 * 1000.0;
  EXPECT_NEAR(rec.detect_time.to_millis(), 80.0 + 2 * (tx_ms + 10.0), 0.1);
}

TEST(SrmAgent, FirstRequestDelayWithinScheduledInterval) {
  // Receiver 3 is 2 hops from the source: d̂hs = 20 ms. With C1 = C2 = 2
  // the first request fires within [40, 80] ms of detection, so recovery
  // cannot complete before detection + 40 ms + RTT components.
  SrmBench b;
  b.drop(0, 3);
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  const auto rec = recovery_records(b.at(3).stats().recoveries).at(0);
  const double latency_ms = rec.latency_seconds() * 1000.0;
  // Lower bound: request delay ≥ 40 ms plus request+reply propagation
  // (≥ 2 hops each way to the closest replier ≈ 40 ms with D1 ≥ 1).
  EXPECT_GE(latency_ms, 40.0 + 20.0);
  // Upper bound: 80 (request) + 20 (to replier 4) + 2·20 (reply interval
  // at replier 0/4) + transit; generous cap at first-round worst case.
  EXPECT_LE(latency_ms, 250.0);
  EXPECT_EQ(rec.rounds, 1);  // recovered in the first round
}

TEST(SrmAgent, SharedLossSuppressesDuplicateRequestsAndReplies) {
  SrmBench b;
  b.drop(0, 1);  // receivers 3 and 4 both lose packet 0
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  EXPECT_TRUE(b.at(3).has_packet(0));
  EXPECT_TRUE(b.at(4).has_packet(0));
  const std::uint64_t requests =
      b.at(3).stats().requests_sent + b.at(4).stats().requests_sent;
  // Both detect at nearly the same time; deterministic suppression keeps
  // the request count at 1 or 2 (not one per round per host).
  EXPECT_GE(requests, 1u);
  EXPECT_LE(requests, 2u);
  const std::uint64_t replies =
      b.at(0).stats().replies_sent + b.at(5).stats().replies_sent;
  EXPECT_GE(replies, 1u);
  EXPECT_LE(replies, 2u);
}

TEST(SrmAgent, ReplierIsAnyHostWithThePacket) {
  SrmBench b;
  b.drop(0, 5);  // only receiver 5 loses; 0, 3, 4 can all reply
  b.transmit(2);
  b.run_for(SimTime::seconds(10));
  EXPECT_TRUE(b.at(5).has_packet(0));
  const std::uint64_t replies = b.at(0).stats().replies_sent +
                                b.at(3).stats().replies_sent +
                                b.at(4).stats().replies_sent;
  EXPECT_GE(replies, 1u);
  EXPECT_LE(replies, 2u);  // suppression keeps duplicates down
}

TEST(SrmAgent, EveryLossEventuallyRecoversUnderBurstLoss) {
  SrmBench b;
  // A 30-packet burst on the shared link plus scattered leaf losses.
  for (SeqNo i = 10; i < 40; ++i) b.drop(i, 1);
  for (SeqNo i = 0; i < 60; i += 7) b.drop(i, 5);
  b.transmit(80);
  b.run_for(SimTime::seconds(60));
  for (NodeId n : {3, 4, 5}) {
    EXPECT_EQ(b.at(n).outstanding_losses(), 0u) << "node " << n;
    for (SeqNo i = 0; i < 80; ++i)
      EXPECT_TRUE(b.at(n).has_packet(i)) << "node " << n << " seq " << i;
  }
}

TEST(SrmAgent, TailLossDetectedViaSessionMessages) {
  SrmBench b;
  b.drop(4, 3);  // the LAST packet: no later data packet reveals the gap
  for (auto& a : b.agents) a->start_session(SimTime::millis(100));
  b.transmit(5);
  b.run_for(SimTime::seconds(15));
  EXPECT_TRUE(b.at(3).has_packet(4));
  ASSERT_EQ(b.at(3).stats().recoveries.size(), 1u);
  const auto recs = recovery_records(b.at(3).stats().recoveries);
  EXPECT_TRUE(recs[0].recovered);
  // Detection could not have happened before the first source session
  // message following the loss.
  EXPECT_GT(recs[0].detect_time, SimTime::millis(80 * 4));
}

TEST(SrmAgent, LossOfAllInitialPacketsDetectedOnFirstArrival) {
  SrmBench b;
  b.drop(0, 3);
  b.drop(1, 3);
  b.drop(2, 3);
  b.transmit(4);
  b.run_for(SimTime::seconds(20));
  EXPECT_EQ(b.at(3).stats().losses_detected, 3u);
  for (SeqNo i = 0; i < 4; ++i) EXPECT_TRUE(b.at(3).has_packet(i));
}

TEST(SrmAgent, MultiRoundRecoveryWhenRepliesAreLost) {
  SrmBench b;
  b.drop(0, 3);
  // Drop every reply crossing the link into node 1 for the first second:
  // receiver 3's first-round recovery fails and it must back off.
  b.network->set_drop_fn([&b](const net::Packet& pkt, NodeId from,
                              NodeId to) {
    if (pkt.type == net::PacketType::kData)
      return b.tree->parent(to) == from && b.drops.count({pkt.seq, to}) != 0;
    if (pkt.type == net::PacketType::kReply && to == 1 &&
        b.sim.now() < SimTime::seconds(1))
      return true;
    return false;
  });
  b.transmit(2);
  b.run_for(SimTime::seconds(30));
  ASSERT_EQ(b.at(3).stats().recoveries.size(), 1u);
  const auto rec = recovery_records(b.at(3).stats().recoveries)[0];
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.rounds, 2);  // needed more than one request round
  EXPECT_GE(b.at(3).stats().requests_sent, 2u);
}

TEST(SrmAgent, SessionEstimatesConvergeToTruePathDelays) {
  SrmBench b(3, SimTime::millis(10), /*oracle=*/false);
  SimTime offset = SimTime::zero();
  for (auto& a : b.agents) {
    a->start_session(offset);
    offset += SimTime::millis(137);
  }
  // Two session rounds close every echo loop; run three to be safe.
  b.run_for(SimTime::seconds(3));
  for (auto& a : b.agents) {
    for (auto& peer : b.agents) {
      if (peer->node() == a->node()) continue;
      ASSERT_TRUE(a->distances().has_estimate(peer->node()))
          << a->node() << " -> " << peer->node();
      // Session packets are 0 bytes (no serialization), links are
      // symmetric: the timestamp-echo estimate is exact.
      EXPECT_DOUBLE_EQ(
          a->distances().distance(peer->node()),
          b.network->path_delay(a->node(), peer->node()).to_seconds());
    }
  }
}

TEST(SrmAgent, SourceRefusesNonConsecutiveData) {
  SrmBench b;
  EXPECT_THROW(b.at(0).send_data(5), util::CheckError);
  b.at(0).send_data(0);
  EXPECT_THROW(b.at(0).send_data(0), util::CheckError);
  EXPECT_THROW(b.at(0).send_data(2), util::CheckError);
}

TEST(SrmAgent, ReceiverOriginatesItsOwnStream) {
  // SRM is many-to-many: any member may originate a stream (identified by
  // its own node id). Member 3 transmits; everyone else receives and can
  // recover losses of that stream.
  SrmBench b;
  b.sim.schedule_at(SimTime::zero(), [&b] { b.at(3).send_data(0); });
  b.sim.schedule_at(SimTime::millis(80), [&b] { b.at(3).send_data(1); });
  b.run_for(SimTime::seconds(5));
  for (NodeId n : {0, 4, 5}) {
    EXPECT_TRUE(b.at(n).has_packet(3, 0)) << "node " << n;
    EXPECT_TRUE(b.at(n).has_packet(3, 1)) << "node " << n;
  }
  EXPECT_TRUE(b.at(3).originates(3));
  EXPECT_TRUE(b.at(3).has_packet(3, 1));
  // Non-consecutive sequencing on the own stream is still rejected.
  EXPECT_THROW(b.at(3).send_data(5), util::CheckError);
}

TEST(SrmAgent, ConcurrentStreamsRecoverIndependently) {
  SrmBench b;
  // Primary stream from the source with a loss at receiver 3, plus a
  // second stream originated by receiver 5 with a loss on link 1 (both
  // 3 and 4 lose it — flood from 5 crosses edge 0→1 downstream).
  b.drop(0, 3);
  b.transmit(2);
  b.network->set_drop_fn([&b](const net::Packet& pkt, NodeId from,
                              NodeId to) {
    if (pkt.type != net::PacketType::kData) return false;
    if (pkt.source == 0)
      return b.tree->parent(to) == from && b.drops.count({pkt.seq, to}) != 0;
    // Stream from node 5: drop its packet 0 on the link into router 1.
    return pkt.seq == 0 && to == 1;
  });
  b.sim.schedule_at(SimTime::millis(10), [&b] { b.at(5).send_data(0); });
  b.sim.schedule_at(SimTime::millis(90), [&b] { b.at(5).send_data(1); });
  b.run_for(SimTime::seconds(10));
  // Both streams fully recovered everywhere.
  for (NodeId n : {3, 4}) {
    EXPECT_TRUE(b.at(n).has_packet(0, 0)) << "node " << n;
    EXPECT_TRUE(b.at(n).has_packet(5, 0)) << "node " << n;
    EXPECT_TRUE(b.at(n).has_packet(5, 1)) << "node " << n;
  }
  EXPECT_TRUE(b.at(0).has_packet(5, 0));
  EXPECT_EQ(b.at(3).outstanding_losses(), 0u);
  EXPECT_EQ(b.at(4).outstanding_losses(), 0u);
  // Recovery records carry the stream id.
  bool saw_stream5 = false;
  for (const auto& r : b.at(3).stats().recoveries)
    if (r.source == 5) saw_stream5 = true;
  EXPECT_TRUE(saw_stream5);
  EXPECT_EQ(b.at(3).known_streams(), (std::vector<NodeId>{0, 5}));
}

TEST(SrmAgent, DeterministicForIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    SrmBench b(seed);
    for (SeqNo i = 5; i < 25; ++i) b.drop(i, 1);
    b.drop(2, 5);
    b.transmit(40);
    b.run_for(SimTime::seconds(30));
    std::vector<std::uint64_t> sig;
    for (auto& a : b.agents) {
      sig.push_back(a->stats().requests_sent);
      sig.push_back(a->stats().replies_sent);
      sig.push_back(a->stats().losses_detected);
      for (const auto& r : a->stats().recoveries)
        sig.push_back(static_cast<std::uint64_t>(
            (r.recover_time - r.detect_time).ns()));
    }
    return sig;
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));  // jitter actually depends on the seed
}

TEST(SrmAgent, ReplyStateIsDroppedOnceItsAbstinenceEnds) {
  // A reply record matters only while a reply is scheduled and during the
  // abstinence after it; the session tick erases the rest. So each
  // member holds about one session period's worth of records, not one
  // per packet repaired over the whole run.
  SrmBench b;
  for (SeqNo i = 0; i < 400; i += 3) b.drop(i, 1);  // 3 and 4 lose these
  for (SeqNo i = 1; i < 400; i += 5) b.drop(i, 5);
  SimTime offset = SimTime::millis(50);
  for (auto& a : b.agents) {
    a->start_session(offset);
    offset = offset + SimTime::millis(230);
  }
  b.transmit(400);
  std::size_t peak = 0;
  for (int tick = 0; tick < 400; ++tick) {
    b.run_for(SimTime::millis(100));
    for (auto& a : b.agents) peak = std::max(peak, a->reply_states());
  }
  std::size_t repaired = 0;
  for (NodeId n : {3, 4, 5}) {
    EXPECT_EQ(b.at(n).outstanding_losses(), 0u) << "node " << n;
    for (const RecoveryRecord& r : b.at(n).stats().recoveries)
      repaired += r.recovered ? 1 : 0;
  }
  EXPECT_GE(repaired, 100u);
  EXPECT_LE(peak, 20u);
}

TEST(SrmAgent, FinalizeRecordsUnrecoveredLosses) {
  SrmBench b;
  b.drop(0, 3);
  // Drop *all* recovery traffic so the loss can never be repaired.
  b.network->set_drop_fn([&b](const net::Packet& pkt, NodeId from,
                              NodeId to) {
    if (pkt.type == net::PacketType::kData)
      return b.tree->parent(to) == from && b.drops.count({pkt.seq, to}) != 0;
    return pkt.type == net::PacketType::kRequest ||
           pkt.type == net::PacketType::kReply;
  });
  b.transmit(2);
  b.run_for(SimTime::seconds(5));
  EXPECT_EQ(b.at(3).outstanding_losses(), 1u);
  b.at(3).finalize_stats();
  ASSERT_EQ(b.at(3).stats().recoveries.size(), 1u);
  EXPECT_FALSE(recovery_records(b.at(3).stats().recoveries)[0].recovered);
  EXPECT_EQ(b.at(3).outstanding_losses(), 0u);
}

// ------------------------------------------------------------ RecoveryLog --

RecoveryRecord record(NodeId source, SeqNo seq, std::int64_t detect_ns,
                      std::int64_t recover_ns, bool recovered, bool expedited,
                      int rounds) {
  RecoveryRecord r;
  r.source = source;
  r.seq = seq;
  r.detect_time = SimTime::nanos(detect_ns);
  r.recover_time = SimTime::nanos(recover_ns);
  r.recovered = recovered;
  r.expedited = expedited;
  r.rounds = rounds;
  return r;
}

RecoveryLog log_of(const std::vector<RecoveryRecord>& recs) {
  RecoveryLog log;
  for (const auto& r : recs) log.push_back(r);
  return log;
}

/// Pushes `recs` and checks that iteration yields each one, field by field.
void expect_round_trip(const std::vector<RecoveryRecord>& recs) {
  const RecoveryLog log = log_of(recs);
  ASSERT_EQ(log.size(), recs.size());
  EXPECT_EQ(log.empty(), recs.empty());
  const auto back = recovery_records(log);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].source, recs[i].source) << "record " << i;
    EXPECT_EQ(back[i].seq, recs[i].seq) << "record " << i;
    EXPECT_EQ(back[i].detect_time.ns(), recs[i].detect_time.ns())
        << "record " << i;
    EXPECT_EQ(back[i].recover_time.ns(), recs[i].recover_time.ns())
        << "record " << i;
    EXPECT_EQ(back[i].recovered, recs[i].recovered) << "record " << i;
    EXPECT_EQ(back[i].expedited, recs[i].expedited) << "record " << i;
    EXPECT_EQ(back[i].rounds, recs[i].rounds) << "record " << i;
  }
}

static_assert(std::forward_iterator<RecoveryLog::const_iterator>);

TEST(RecoveryLog, EmptyLogYieldsNothing) {
  const RecoveryLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_TRUE(log.begin() == log.end());
  EXPECT_TRUE(log == RecoveryLog{});
  expect_round_trip({});
}

TEST(RecoveryLog, EdgeValuesRoundTrip) {
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  constexpr NodeId node_lo = std::numeric_limits<NodeId>::min();
  constexpr NodeId node_hi = std::numeric_limits<NodeId>::max();
  constexpr int int_lo = std::numeric_limits<int>::min();
  constexpr int int_hi = std::numeric_limits<int>::max();
  const std::int64_t never = SimTime::infinity().ns();
  expect_round_trip({
      RecoveryRecord{},                               // equals the first base
      record(0, 5, 1000, never, false, false, 0),     // open at the end
      record(0, 4, 2000, 1500, true, false, 1),       // recovered < detected
      record(0, 4, 2000, 1500, true, false, 1),       // all deltas zero
      record(0, hi, hi, lo, true, true, 14),
      record(0, lo, lo, hi, false, true, 15),
      record(0, net::kNoSeq, 0, 0, true, false, -1),
      record(0, hi, lo, never, true, true, 7),        // last inline rounds
      record(0, lo, hi, hi - 1, false, false, -8),    // first escaped rounds
      record(0, 0, 0, never, true, false, 8),
      record(3, 1, 1, 2, true, false, int_lo),        // source changes
      record(7, 0, 1, 2, true, true, int_hi),
      record(3, 2, 0, 0, false, false, -15),
      record(net::kInvalidNode, net::kNoSeq, 0, never, false, false, 0),
      record(node_hi, hi, hi, hi, true, true, 0),
      record(node_lo, lo, lo, lo, true, true, 0),
      record(node_hi, 0, 0, 0, false, false, 0),
  });
}

TEST(RecoveryLog, SeededRandomSequencesRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto any64 = [&rng] {
      return static_cast<std::int64_t>(rng.next_u64());
    };
    std::vector<RecoveryRecord> recs(
        static_cast<std::size_t>(rng.uniform_int(0, 300)));
    RecoveryRecord prev;
    for (auto& r : recs) {
      // Mostly the small steps of a real run (seq and time moving either
      // way, a few sources), sometimes any 64-bit value.
      r.source = rng.bernoulli(0.9)
                     ? prev.source
                     : static_cast<NodeId>(rng.uniform_int(-1, 40));
      if (rng.bernoulli(0.02))
        r.source = static_cast<NodeId>(static_cast<std::uint32_t>(rng.next_u64()));
      r.seq = rng.bernoulli(0.9) ? prev.seq + rng.uniform_int(-50, 50)
                                 : any64();
      r.detect_time = rng.bernoulli(0.9)
                          ? prev.detect_time +
                                SimTime::nanos(rng.uniform_int(-1000000,
                                                               200000000))
                          : SimTime::nanos(any64());
      const double kind = rng.next_double();
      r.recover_time =
          kind < 0.2   ? SimTime::infinity()
          : kind < 0.9 ? r.detect_time +
                             SimTime::nanos(rng.uniform_int(0, 2000000000))
                       : SimTime::nanos(any64());
      r.recovered = rng.bernoulli(0.5);
      r.expedited = rng.bernoulli(0.5);
      r.rounds = rng.bernoulli(0.95)
                     ? static_cast<int>(rng.uniform_int(-20, 40))
                     : static_cast<int>(static_cast<std::uint32_t>(rng.next_u64()));
      prev = r;
    }
    expect_round_trip(recs);
  }
}

TEST(RecoveryLog, CopiesCompareEqualAndKeepAppending) {
  const std::vector<RecoveryRecord> recs = {
      record(0, 3, 100, 200, true, false, 1),
      record(0, 1, 150, SimTime::infinity().ns(), false, false, 2),
      record(4, 9, 180, 260, true, true, 0),
  };
  const RecoveryLog a = log_of(recs);
  RecoveryLog copy = a;
  EXPECT_TRUE(copy == a);
  EXPECT_EQ(copy.size(), a.size());
  EXPECT_EQ(copy.bytes(), a.bytes());
  // A copy continues the delta chain where the original left off.
  RecoveryLog longer = a;
  const RecoveryRecord next = record(4, 10, 300, 400, true, false, 0);
  longer.push_back(next);
  copy.push_back(next);
  EXPECT_FALSE(longer == a);
  EXPECT_TRUE(longer == copy);
  auto all = recs;
  all.push_back(next);
  expect_round_trip(all);
  const auto back = recovery_records(longer);
  ASSERT_EQ(back.size(), all.size());
  EXPECT_EQ(back.back().seq, 10);
  EXPECT_EQ(back.back().source, 4);
  // One field of one record differing makes the logs differ.
  for (std::size_t i = 0; i < recs.size(); ++i) {
    auto changed = recs;
    changed[i].expedited = !changed[i].expedited;
    EXPECT_FALSE(log_of(changed) == a) << "record " << i;
    changed = recs;
    changed[i].detect_time += SimTime::nanos(1);
    EXPECT_FALSE(log_of(changed) == a) << "record " << i;
  }
}

TEST(RecoveryLog, TableOneRunAveragesAtMostTwelveBytesPerRecord) {
  const auto gen =
      trace::generate_trace(trace::capped_spec(trace::table1_spec(3), 6000));
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  const infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kCesrm;
  const auto result = harness::run_experiment(*gen.loss, links, cfg);
  std::size_t records = 0, bytes = 0;
  for (const auto& m : result.members) {
    records += m.stats.recoveries.size();
    bytes += m.stats.recoveries.bytes();
  }
  ASSERT_GT(records, 1000u);
  EXPECT_LE(static_cast<double>(bytes) / static_cast<double>(records), 12.0)
      << bytes << " bytes for " << records << " records";
}

}  // namespace
}  // namespace cesrm::srm
