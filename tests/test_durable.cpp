// Tests for the durable recovery-state subsystem (src/durable): the
// CRC-framed journal codec and its truncation taxonomy, the write-behind
// AgentStore and its crash/restore semantics, reply-dedup exactly-once
// behavior across a crash-restart (including the fault oracle's
// duplicate-retransmission detector), the warm-vs-cold restart comparison,
// a deterministic corruption fuzzer over the journal scanner and the full
// restore path, and the committed corrupted-journal regression corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "durable/journal.hpp"
#include "durable/store.hpp"
#include "fault/fault_plan.hpp"
#include "fault/oracle.hpp"
#include "harness/experiment.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "recovery_records.hpp"
#include "srm/srm_agent.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "wire/crc32.hpp"

namespace cesrm::durable {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;
using Bytes = std::vector<std::uint8_t>;

// ------------------------------------------------------- record builders --

net::Packet horizon_packet(NodeId node, NodeId source, SeqNo highest) {
  auto payload = std::make_shared<net::SessionPayload>();
  payload->stamp = SimTime::zero();
  payload->streams.push_back({source, highest});
  return net::make_session_packet(node, node, std::move(payload));
}

net::Packet cache_tuple_packet(NodeId node, NodeId source, SeqNo seq,
                               NodeId requestor, NodeId replier) {
  net::RecoveryAnnotation ann;
  ann.requestor = requestor;
  ann.dist_requestor_source = 0.02;
  ann.replier = replier;
  ann.dist_replier_requestor = 0.01;
  net::Packet pkt = net::make_reply_packet(node, source, seq, ann);
  pkt.size_bytes = 0;  // journal records carry no simulated payload
  return pkt;
}

net::Packet served_packet(NodeId node, NodeId source, SeqNo seq,
                          NodeId requestor) {
  net::Packet pkt = net::make_request_packet(requestor, source, seq, 0.02);
  pkt.sender = node;
  return pkt;
}

net::Packet exp_served_packet(NodeId node, NodeId source, SeqNo seq,
                              NodeId requestor) {
  net::RecoveryAnnotation ann;
  ann.requestor = requestor;
  ann.replier = node;
  return net::make_exp_request_packet(node, node, source, seq, ann);
}

Bytes journal_with_one_of_each(NodeId node) {
  Bytes out;
  append_record(RecordKind::kHorizon, horizon_packet(node, 0, 41), &out);
  append_record(RecordKind::kCacheTuple,
                cache_tuple_packet(node, 0, 7, 3, 4), &out);
  append_record(RecordKind::kReplyServed, served_packet(node, 0, 7, 5),
                &out);
  append_record(RecordKind::kExpReplyServed,
                exp_served_packet(node, 0, 8, 5), &out);
  return out;
}

/// Recomputes the CRC trailer of the record starting at `off` (used by
/// tests that deliberately damage the payload but keep the CRC valid).
void refresh_crc(Bytes* buf, std::size_t off) {
  const std::uint32_t len = static_cast<std::uint32_t>(buf->at(off + 4)) |
                            (static_cast<std::uint32_t>(buf->at(off + 5))
                             << 8) |
                            (static_cast<std::uint32_t>(buf->at(off + 6))
                             << 16) |
                            (static_cast<std::uint32_t>(buf->at(off + 7))
                             << 24);
  const std::size_t body = kRecordHeaderBytes + len;
  const std::uint32_t crc = wire::crc32(
      std::span<const std::uint8_t>(buf->data() + off, body));
  for (int i = 0; i < 4; ++i)
    (*buf)[off + body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
}

// --------------------------------------------------------------- journal --

TEST(Journal, EmptyJournalScansClean) {
  const ScanResult r = scan({});
  EXPECT_TRUE(r.clean());
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
}

TEST(Journal, RoundTripsEveryRecordKind) {
  const Bytes buf = journal_with_one_of_each(9);
  const ScanResult r = scan(buf);
  ASSERT_TRUE(r.clean()) << scan_diagnosis_name(r.diagnosis);
  EXPECT_EQ(r.valid_bytes, buf.size());
  ASSERT_EQ(r.records.size(), 4u);

  EXPECT_EQ(r.records[0].kind, RecordKind::kHorizon);
  ASSERT_NE(r.records[0].packet.session, nullptr);
  ASSERT_EQ(r.records[0].packet.session->streams.size(), 1u);
  EXPECT_EQ(r.records[0].packet.session->streams[0].highest_seq, 41);

  EXPECT_EQ(r.records[1].kind, RecordKind::kCacheTuple);
  EXPECT_EQ(r.records[1].packet.seq, 7);
  EXPECT_EQ(r.records[1].packet.ann.requestor, 3);
  EXPECT_EQ(r.records[1].packet.ann.replier, 4);

  EXPECT_EQ(r.records[2].kind, RecordKind::kReplyServed);
  EXPECT_EQ(r.records[2].packet.ann.requestor, 5);

  EXPECT_EQ(r.records[3].kind, RecordKind::kExpReplyServed);
  EXPECT_EQ(r.records[3].packet.seq, 8);
}

TEST(Journal, RecordKindAndDiagnosisNamesAreStable) {
  EXPECT_STREQ(record_kind_name(RecordKind::kHorizon), "horizon");
  EXPECT_STREQ(record_kind_name(RecordKind::kExpReplyServed),
               "exp_reply_served");
  EXPECT_STREQ(scan_diagnosis_name(ScanDiagnosis::kClean), "clean");
  EXPECT_STREQ(scan_diagnosis_name(ScanDiagnosis::kBadPayload),
               "bad_payload");
  EXPECT_EQ(payload_type(RecordKind::kHorizon), net::PacketType::kSession);
  EXPECT_EQ(payload_type(RecordKind::kCacheTuple), net::PacketType::kReply);
}

// Each defect is injected into the *second* record so the scanner must
// both keep the valid prefix and stop exactly at the damage.
class JournalDefect : public ::testing::Test {
 protected:
  JournalDefect() {
    append_record(RecordKind::kHorizon, horizon_packet(9, 0, 3), &buf_);
    first_record_bytes_ = buf_.size();
    append_record(RecordKind::kReplyServed, served_packet(9, 0, 3, 5),
                  &buf_);
  }

  void expect_stops_at_second(ScanDiagnosis want) {
    const ScanResult r = scan(buf_);
    EXPECT_EQ(r.diagnosis, want)
        << "got " << scan_diagnosis_name(r.diagnosis);
    EXPECT_EQ(r.valid_bytes, first_record_bytes_);
    EXPECT_EQ(r.error_offset, first_record_bytes_);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].kind, RecordKind::kHorizon);
  }

  Bytes buf_;
  std::size_t first_record_bytes_ = 0;
};

TEST_F(JournalDefect, TornTail) {
  buf_.resize(buf_.size() - 3);  // partial CRC trailer
  expect_stops_at_second(ScanDiagnosis::kTornTail);
}

TEST_F(JournalDefect, TornTailMidHeader) {
  buf_.resize(first_record_bytes_ + 5);
  expect_stops_at_second(ScanDiagnosis::kTornTail);
}

TEST_F(JournalDefect, BadMagic) {
  buf_[first_record_bytes_] ^= 0xFF;
  expect_stops_at_second(ScanDiagnosis::kBadMagic);
}

TEST_F(JournalDefect, BadVersion) {
  buf_[first_record_bytes_ + 2] = kJournalVersion + 1;
  expect_stops_at_second(ScanDiagnosis::kBadVersion);
}

TEST_F(JournalDefect, BadKindZeroAndAboveMax) {
  const std::uint8_t saved = buf_[first_record_bytes_ + 3];
  buf_[first_record_bytes_ + 3] = 0;
  expect_stops_at_second(ScanDiagnosis::kBadKind);
  buf_[first_record_bytes_ + 3] = kMaxRecordKind + 1;
  expect_stops_at_second(ScanDiagnosis::kBadKind);
  buf_[first_record_bytes_ + 3] = saved;
  EXPECT_TRUE(scan(buf_).clean());
}

TEST_F(JournalDefect, BadLength) {
  const std::uint32_t huge = kMaxRecordPayload + 1;
  for (int i = 0; i < 4; ++i)
    buf_[first_record_bytes_ + 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  expect_stops_at_second(ScanDiagnosis::kBadLength);
}

TEST_F(JournalDefect, BadCrcOnFlippedPayloadBit) {
  buf_[first_record_bytes_ + kRecordHeaderBytes + 1] ^= 0x10;
  expect_stops_at_second(ScanDiagnosis::kBadCrc);
}

TEST_F(JournalDefect, BadPayloadOnTypeMismatchWithValidCrc) {
  // Rewrite the second record's kind to kHorizon: the payload stays a
  // structurally valid REQUEST frame and the CRC is refreshed, but the
  // kind's payload type is SESSION — the cross-check must reject it.
  buf_[first_record_bytes_ + 3] =
      static_cast<std::uint8_t>(RecordKind::kHorizon);
  refresh_crc(&buf_, first_record_bytes_);
  expect_stops_at_second(ScanDiagnosis::kBadPayload);
}

TEST_F(JournalDefect, GarbageAfterValidPrefixIsNotTrusted) {
  buf_.push_back(0x42);  // stray byte after two valid records
  const ScanResult r = scan(buf_);
  EXPECT_EQ(r.diagnosis, ScanDiagnosis::kTornTail);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.valid_bytes, buf_.size() - 1);
}

// ----------------------------------------------------------------- store --

TEST(DurableMode, ParsesAndNames) {
  EXPECT_EQ(try_parse_durable_mode("off"), DurableMode::kOff);
  EXPECT_EQ(try_parse_durable_mode("cold"), DurableMode::kCold);
  EXPECT_EQ(try_parse_durable_mode("warm"), DurableMode::kWarm);
  EXPECT_FALSE(try_parse_durable_mode("lukewarm").has_value());
  EXPECT_STREQ(durable_mode_name(DurableMode::kWarm), "warm");
  EXPECT_EQ(std::string(durable_mode_names()), "off, cold, warm");
}

TEST(AgentStore, WriteBehindCommitsEveryFlushWindow) {
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 3;
  AgentStore store(9, config);
  for (SeqNo s = 0; s < 5; ++s) store.on_horizon(0, s);
  // 5 appends, window of 3: one flush happened, two records pending.
  EXPECT_EQ(store.pending_records(), 2u);
  EXPECT_EQ(store.totals().records_appended, 5u);
  const ScanResult stable = scan(store.stable_journal());
  ASSERT_TRUE(stable.clean());
  EXPECT_EQ(stable.records.size(), 3u);

  // A crash loses exactly the write-behind window.
  store.on_crash();
  EXPECT_EQ(store.pending_records(), 0u);
  EXPECT_EQ(store.totals().records_dropped_at_crash, 2u);
  EXPECT_EQ(scan(store.stable_journal()).records.size(), 3u);
}

/// Small CESRM bench: source 0 plus the given leaf receivers, 10 ms
/// links, oracle distances, no background session traffic unless started.
struct Bench {
  explicit Bench(std::uint64_t seed = 1,
                 const std::string& tree_str = "0(1(2 3))",
                 std::vector<NodeId> nodes = {0, 2, 3}) {
    net::NetworkConfig ncfg;
    ncfg.link_delay = SimTime::millis(10);
    tree = std::make_unique<net::MulticastTree>(net::parse_tree(tree_str));
    network = std::make_unique<net::Network>(sim, *tree, ncfg);
    config.srm.oracle_distances = true;
    for (NodeId n : nodes) {
      agents.push_back(std::make_unique<cesrm::CesrmAgent>(
          sim, *network, n, 0, config,
          util::Rng(seed + static_cast<std::uint64_t>(n))));
    }
    network->set_drop_fn([this](const net::Packet& pkt, NodeId from,
                                NodeId to) {
      if (pkt.type != net::PacketType::kData) return false;
      return tree->parent(to) == from && drops.count({pkt.seq, to}) != 0;
    });
  }

  cesrm::CesrmAgent& at(NodeId node) {
    for (auto& a : agents)
      if (a->node() == node) return *a;
    throw std::runtime_error("no agent");
  }

  void drop(SeqNo seq, NodeId child) { drops.insert({seq, child}); }

  void transmit(SeqNo n, SimTime period = SimTime::millis(80),
                SimTime start = SimTime::zero()) {
    for (SeqNo i = 0; i < n; ++i)
      sim.schedule_at(start + period * i, [this, i] { at(0).send_data(i); });
  }

  void run_until(SimTime t) { sim.run_until(t); }

  sim::Simulator sim;
  std::unique_ptr<net::MulticastTree> tree;
  std::unique_ptr<net::Network> network;
  cesrm::CesrmConfig config;
  std::vector<std::unique_ptr<cesrm::CesrmAgent>> agents;
  std::set<std::pair<SeqNo, NodeId>> drops;
};

TEST(AgentStore, RestoredHorizonDrivesCatchUpWithoutNewTraffic) {
  Bench b;
  // Receiver 3 is down from the start and never sees packets 0..9.
  b.at(2).fail();
  b.transmit(10);
  b.run_until(SimTime::seconds(2));
  EXPECT_FALSE(b.at(2).has_packet(0, 0));

  // A journal told it the stream extends to seq 9; replay and rejoin.
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  store.on_horizon(0, 9);
  store.restore(b.at(2));
  EXPECT_EQ(store.totals().records_restored, 1u);
  b.at(2).recover(SimTime::millis(5));
  b.run_until(SimTime::seconds(30));

  // All ten packets recovered purely from the restored horizon — no new
  // data arrival or session advert revealed the gap.
  for (SeqNo s = 0; s < 10; ++s)
    EXPECT_TRUE(b.at(2).has_packet(0, s)) << "seq " << s;
  EXPECT_EQ(b.at(2).stats().losses_detected, 10u);
}

TEST(AgentStore, RestoreSkipsRecordsAnAgentMustNotTrust) {
  Bench b;
  b.at(2).fail();

  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  // A structurally valid cache tuple whose nodes are kInvalidNode is
  // wire-legal but must not reach CachePolicy::update.
  net::RecoveryAnnotation ann;  // all fields invalid/defaulted
  store.on_cache_tuple(0, 3, ann);
  store.on_reply_served(0, 4, 5, /*expedited=*/false);
  store.restore(b.at(2));
  EXPECT_EQ(store.totals().records_skipped_invalid, 1u);
  EXPECT_EQ(store.totals().records_restored, 1u);
  EXPECT_EQ(b.at(2).served_ledger_size(), 1u);
  b.at(2).recover(SimTime::millis(5));
}

TEST(AgentStore, HorizonBeyondTheSeqWindowIsDroppedAndCounted) {
  Bench b;
  b.transmit(3);
  b.run_until(SimTime::seconds(1));
  ASSERT_EQ(b.at(2).highest_seq(0), 2);
  b.at(2).fail();

  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  store.on_horizon(0, 2 + srm::kSeqWindow + 1000);
  store.restore(b.at(2));
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 1u);
  EXPECT_EQ(b.at(2).highest_seq(0), 2);
  b.at(2).recover(SimTime::millis(5));
  b.run_until(SimTime::seconds(3));
  EXPECT_EQ(b.at(2).stats().losses_detected, 0u);
  EXPECT_EQ(b.at(2).outstanding_losses(), 0u);
}

TEST(AgentStore, MaxSeqHorizonLeavesTheMemberRunning) {
  Bench b;
  b.at(2).fail();
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  store.on_horizon(0, wire::kMaxSeqNo);
  store.restore(b.at(2));
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 1u);
  b.at(2).recover(SimTime::millis(5));

  // The rejoined member takes the stream as usual, losses included.
  b.drop(1, 2);
  b.transmit(4, SimTime::millis(80), SimTime::millis(10));
  b.run_until(SimTime::seconds(10));
  for (SeqNo s = 0; s < 4; ++s)
    EXPECT_TRUE(b.at(2).has_packet(0, s)) << "seq " << s;
  EXPECT_EQ(b.at(2).stats().losses_detected, 1u);
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 1u);
}

/// A tuple member 2 of the Bench tree may journal: member 3 requested,
/// the source replied.
net::RecoveryAnnotation journaled_tuple() {
  net::RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.02;
  ann.replier = 0;
  ann.dist_replier_requestor = 0.02;
  return ann;
}

/// Member 2 rejoins after a replay, then takes a stream with one loss.
void expect_member_keeps_running(Bench& b) {
  b.at(2).recover(SimTime::millis(5));
  b.drop(1, 2);
  b.transmit(4, SimTime::millis(80), SimTime::millis(10));
  b.run_until(SimTime::seconds(10));
  for (SeqNo s = 0; s < 4; ++s)
    EXPECT_TRUE(b.at(2).has_packet(0, s)) << "seq " << s;
  EXPECT_EQ(b.at(2).stats().losses_detected, 1u);
}

TEST(AgentStore, MaxSeqCacheTupleIsDroppedAndLeavesTheMemberRunning) {
  Bench b;
  b.at(2).fail();
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  store.on_cache_tuple(0, wire::kMaxSeqNo, journaled_tuple());
  store.restore(b.at(2));
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 1u);
  EXPECT_TRUE(b.at(2).cache(0).empty());
  expect_member_keeps_running(b);
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 1u);
}

TEST(AgentStore, MaxSeqServedRecordIsDroppedAndLeavesTheMemberRunning) {
  Bench b;
  b.at(2).fail();
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  store.on_reply_served(0, wire::kMaxSeqNo, 3, /*expedited=*/false);
  store.on_reply_served(0, wire::kMaxSeqNo, 3, /*expedited=*/true);
  store.restore(b.at(2));
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 2u);
  EXPECT_EQ(b.at(2).served_ledger_size(), 0u);
  expect_member_keeps_running(b);
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 2u);
}

TEST(AgentStore, RecordsJournaledBeforeTheirHorizonAreKept) {
  // A fresh member's window ends below kSeqWindow. The journal's tuple
  // and served record name a seq above it, and precede the horizon
  // records that carry the window over that seq (a reply can arrive
  // before its data). Horizons replay first, so neither is dropped.
  Bench b;
  b.at(2).fail();
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  const SeqNo seq = srm::kSeqWindow + 10;
  store.on_cache_tuple(0, seq, journaled_tuple());
  store.on_reply_served(0, seq, 3, /*expedited=*/false);
  store.on_horizon(0, 100);
  store.on_horizon(0, seq);
  store.restore(b.at(2));
  EXPECT_EQ(b.at(2).stats().seq_beyond_window, 0u);
  EXPECT_EQ(b.at(2).highest_seq(0), seq);
  EXPECT_EQ(b.at(2).served_ledger_size(), 1u);
  ASSERT_FALSE(b.at(2).cache(0).empty());
  EXPECT_EQ(b.at(2).cache(0).most_recent()->seq, seq);
}

TEST(AgentStore, DamagedTailTruncatesAndRestoreDegradesGracefully) {
  Bench b;
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  AgentStore store(2, config);
  for (SeqNo s = 0; s < 6; ++s) store.on_reply_served(0, s, 4, false);
  const std::size_t intact = store.stable_journal().size();

  // Bit rot in the fourth record: the first three survive, the damaged
  // tail is truncated in place and never trusted again.
  Bytes* journal = store.mutable_stable_journal();
  (*journal)[intact / 2 + 3] ^= 0x40;
  b.at(2).fail();
  store.restore(b.at(2));
  EXPECT_EQ(store.totals().truncated_scans, 1u);
  EXPECT_GT(store.totals().bytes_discarded, 0u);
  EXPECT_LT(store.stable_journal().size(), intact);
  EXPECT_EQ(b.at(2).served_ledger_size(),
            store.totals().records_restored);
  EXPECT_GT(b.at(2).served_ledger_size(), 0u);
  EXPECT_LT(b.at(2).served_ledger_size(), 6u);

  // Idempotent: a second restore replays the truncated journal cleanly.
  const auto restored_before = store.totals().records_restored;
  store.restore(b.at(2));
  EXPECT_EQ(store.totals().truncated_scans, 1u);
  EXPECT_EQ(store.totals().records_restored, 2 * restored_before);
  b.at(2).recover(SimTime::millis(5));
}

// ------------------------------------------------- exactly-once replies --

/// Drives the crash-restart reply-dedup scenario directly: the source
/// served ⟨0, 0, 3⟩ before its crash (journaled), receiver 3 never got the
/// repair, and after the source restarts the same retransmission is
/// requested again. Single receiver, so the reply's requestor is always 3.
struct DedupDrive {
  explicit DedupDrive(bool dedup) : bench(7, "0(1(2))", {0, 2}) {
    // The source restarts at t=0 with the ledger entry restored.
    bench.at(0).fail();
    bench.at(0).restore_served(0, 0, 2);
    bench.at(0).set_reply_dedup(dedup);
    bench.at(0).recover(SimTime::millis(1));
    // Receiver 3 loses packet 0 and detects the gap at packet 1.
    bench.drop(0, 2);
    bench.transmit(2);
    bench.run_until(SimTime::seconds(30));
  }
  Bench bench;
};

TEST(ReplyDedup, RestoredLedgerSuppressesOnceThenServes) {
  DedupDrive d(/*dedup=*/true);
  // The first retransmission was suppressed (already served before the
  // crash), the ledger entry was consumed, and the requestor's own retry
  // was then served normally — exactly-once without losing liveness.
  EXPECT_EQ(d.bench.at(0).stats().retransmissions_suppressed, 1u);
  EXPECT_EQ(d.bench.at(0).stats().duplicate_retransmissions_served, 0u);
  EXPECT_EQ(d.bench.at(0).served_ledger_size(), 0u);
  EXPECT_TRUE(d.bench.at(2).has_packet(0, 0));
  ASSERT_FALSE(d.bench.at(2).stats().recoveries.empty());
  EXPECT_TRUE(
      recovery_records(d.bench.at(2).stats().recoveries).front().recovered);
}

TEST(ReplyDedup, DisabledDedupServesAndCountsTheDuplicate) {
  DedupDrive d(/*dedup=*/false);
  EXPECT_EQ(d.bench.at(0).stats().retransmissions_suppressed, 0u);
  EXPECT_GE(d.bench.at(0).stats().duplicate_retransmissions_served, 1u);
  EXPECT_TRUE(d.bench.at(2).has_packet(0, 0));
}

TEST(ReplyDedup, OracleFlagsDuplicateRetransmissions) {
  // True positive: with dedup disabled the duplicate is served and the
  // oracle's exactly-once detector must fire.
  DedupDrive served(/*dedup=*/false);
  fault::InvariantOracle oracle(served.bench.sim, *served.bench.tree);
  for (auto& agent : served.bench.agents)
    oracle.add_member(agent->node(), agent.get());
  EXPECT_THROW(oracle.finish(/*packets_sent=*/2, /*source=*/0),
               util::CheckError);

  // Control: with dedup on the same drive is exactly-once and clean.
  DedupDrive suppressed(/*dedup=*/true);
  fault::InvariantOracle clean_oracle(suppressed.bench.sim,
                                      *suppressed.bench.tree);
  for (auto& agent : suppressed.bench.agents)
    clean_oracle.add_member(agent->node(), agent.get());
  EXPECT_NO_THROW(clean_oracle.finish(/*packets_sent=*/2, /*source=*/0));
}

// ------------------------------------------------------ warm vs cold -----

struct RestartWorkload {
  RestartWorkload() {
    spec = trace::capped_spec(trace::table1_spec(1), 1200);
    gen = trace::generate_trace(spec);
    const auto est = infer::estimate_links_yajnik(*gen.loss);
    links = std::make_unique<infer::LinkTraceRepresentation>(*gen.loss,
                                                             est.loss_rate);
    context.receivers = spec.receivers;
    context.data_start = harness::kWarmup;
    context.data_end = harness::kWarmup + SimTime::millis(spec.period_ms) *
                                              static_cast<std::int64_t>(
                                                  spec.packets);
    plan = fault::crash_recover_plan(context);
  }
  trace::TraceSpec spec;
  trace::GeneratedTrace gen;
  std::unique_ptr<infer::LinkTraceRepresentation> links;
  fault::ScenarioContext context;
  fault::FaultPlan plan;
};

const RestartWorkload& restart_workload() {
  static RestartWorkload* w = new RestartWorkload();
  return *w;
}

harness::ExperimentResult run_restart(DurableMode mode) {
  const auto& w = restart_workload();
  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kCesrm;
  cfg.seed = 1;
  cfg.faults = w.plan;
  cfg.durable.mode = mode;
  return run_experiment(*w.gen.loss, *w.links, cfg);
}

/// Mean per-loss recovery latency over the crashed members' *gap*
/// recoveries (packets transmitted before the restart, recovered after).
double gap_latency(const harness::ExperimentResult& result) {
  const auto& w = restart_workload();
  double sum = 0.0;
  int members = 0;
  for (const auto& crash : w.plan.crashes) {
    const auto& m = result.members[static_cast<std::size_t>(
        1 + crash.receiver_rank)];
    const auto gap_end = static_cast<SeqNo>(
        (crash.recover_at - w.context.data_start).to_seconds() * 1000.0 /
        static_cast<double>(w.spec.period_ms));
    double member_sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& r : m.stats.recoveries) {
      if (!r.recovered || r.recover_time < crash.recover_at ||
          r.seq > gap_end)
        continue;
      member_sum += r.latency_seconds();
      ++n;
    }
    EXPECT_GT(n, 0u);
    if (n == 0) continue;
    sum += member_sum / static_cast<double>(n);
    ++members;
  }
  return members ? sum / members : 0.0;
}

TEST(WarmRestart, WarmBeatsColdOnCrashRecover) {
  harness::ExperimentResult cold;
  harness::ExperimentResult warm;
  ASSERT_NO_THROW(cold = run_restart(DurableMode::kCold));
  ASSERT_NO_THROW(warm = run_restart(DurableMode::kWarm));

  // Both restarts recover everything (the oracle watched both runs).
  EXPECT_EQ(cold.total_unrecovered(), 0u);
  EXPECT_EQ(warm.total_unrecovered(), 0u);

  // The warm cache steers catch-up onto expedited repairs; cold re-seeds
  // from scratch and pays SRM request races first.
  const double cold_latency = gap_latency(cold);
  const double warm_latency = gap_latency(warm);
  EXPECT_GT(cold_latency, 0.0);
  EXPECT_LT(warm_latency, cold_latency);

  // Exactly-once held with dedup on (the oracle also enforces this).
  for (const auto& m : warm.members)
    EXPECT_EQ(m.stats.duplicate_retransmissions_served, 0u);
}

// ----------------------------------------------------------------- fuzz --

net::Packet random_record_packet(RecordKind kind, util::Rng& rng,
                                 SeqNo max_seq) {
  const NodeId node = static_cast<NodeId>(rng.uniform_int(0, 30));
  const NodeId source = static_cast<NodeId>(rng.uniform_int(0, 30));
  const SeqNo seq = rng.uniform_int(0, max_seq);
  const NodeId requestor = static_cast<NodeId>(rng.uniform_int(0, 30));
  const NodeId replier = static_cast<NodeId>(rng.uniform_int(0, 30));
  switch (kind) {
    case RecordKind::kHorizon:
      return horizon_packet(node, source, seq);
    case RecordKind::kCacheTuple:
      return cache_tuple_packet(node, source, seq, requestor, replier);
    case RecordKind::kReplyServed:
      return served_packet(node, source, seq, requestor);
    case RecordKind::kExpReplyServed:
      return exp_served_packet(node, source, seq, requestor);
  }
  return horizon_packet(node, source, seq);
}

/// One random well-formed journal plus its record boundaries. `max_seq`
/// bounds every seq/horizon field: the scanner doesn't care about record
/// values, but the restore fuzzer feeds these bytes to a live agent, and a
/// CRC-valid spliced horizon record claiming seq ~2^20 makes recover()
/// dutifully catch up on a million phantom packets — correct protocol
/// behavior, uselessly expensive to simulate.
Bytes random_journal(util::Rng& rng, std::vector<std::size_t>* offsets,
                     SeqNo max_seq = 1 << 20) {
  Bytes buf;
  const std::int64_t n = rng.uniform_int(1, 6);
  for (std::int64_t i = 0; i < n; ++i) {
    offsets->push_back(buf.size());
    const auto kind = static_cast<RecordKind>(
        rng.uniform_int(kMinRecordKind, kMaxRecordKind));
    append_record(kind, random_record_packet(kind, rng, max_seq), &buf);
  }
  offsets->push_back(buf.size());
  return buf;
}

void mutate_journal(Bytes* buf, const std::vector<std::size_t>& offsets,
                    util::Rng& rng, SeqNo splice_max_seq = 1 << 20) {
  switch (rng.uniform_int(0, 6)) {
    case 0: {  // flip one bit
      if (buf->empty()) break;
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(buf->size()) - 1));
      (*buf)[i] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
      break;
    }
    case 1: {  // stomp one byte
      if (buf->empty()) break;
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(buf->size()) - 1));
      (*buf)[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      break;
    }
    case 2:  // torn tail
      buf->resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(buf->size()))));
      break;
    case 3: {  // extend with random bytes
      const std::int64_t n = rng.uniform_int(1, 12);
      for (std::int64_t i = 0; i < n; ++i)
        buf->push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      break;
    }
    case 4: {  // swap two whole records (reordering)
      if (offsets.size() < 3) break;
      const auto a = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(offsets.size()) - 2));
      const auto b = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(offsets.size()) - 2));
      if (a == b || offsets[a + 1] > buf->size() ||
          offsets[b + 1] > buf->size())
        break;
      Bytes ra(buf->begin() + static_cast<std::ptrdiff_t>(offsets[a]),
               buf->begin() + static_cast<std::ptrdiff_t>(offsets[a + 1]));
      Bytes rb(buf->begin() + static_cast<std::ptrdiff_t>(offsets[b]),
               buf->begin() + static_cast<std::ptrdiff_t>(offsets[b + 1]));
      Bytes out;
      for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
        const Bytes& src =
            r == a ? rb
                   : (r == b ? ra
                             : Bytes(buf->begin() + static_cast<
                                                        std::ptrdiff_t>(
                                         offsets[r]),
                                     buf->begin() +
                                         static_cast<std::ptrdiff_t>(
                                             offsets[r + 1])));
        out.insert(out.end(), src.begin(), src.end());
      }
      *buf = std::move(out);
      break;
    }
    case 5: {  // duplicate one record
      if (offsets.size() < 2) break;
      const auto r = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(offsets.size()) - 2));
      if (offsets[r + 1] > buf->size()) break;
      const Bytes rec(
          buf->begin() + static_cast<std::ptrdiff_t>(offsets[r]),
          buf->begin() + static_cast<std::ptrdiff_t>(offsets[r + 1]));
      buf->insert(buf->end(), rec.begin(), rec.end());
      break;
    }
    case 6: {  // splice: prepend a prefix of another journal
      std::vector<std::size_t> other_offsets;
      const Bytes other = random_journal(rng, &other_offsets, splice_max_seq);
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(other.size())));
      buf->insert(buf->begin(), other.begin(),
                  other.begin() + static_cast<std::ptrdiff_t>(cut));
      break;
    }
  }
}

TEST(DurableFuzz, CorruptedJournalsNeverBreakTheScanner) {
  std::int64_t iterations = 100000;
  if (const char* env = std::getenv("CESRM_DURABLE_FUZZ_ITERS")) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) iterations = v;
  }
  util::Rng rng(0xD07A31);
  std::array<std::uint64_t, kScanDiagnosisCount> seen{};
  for (std::int64_t iter = 0; iter < iterations; ++iter) {
    std::vector<std::size_t> offsets;
    Bytes buf = random_journal(rng, &offsets);
    const std::int64_t n_mut = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < n_mut; ++m)
      mutate_journal(&buf, offsets, rng);

    const ScanResult r = scan(buf);
    ++seen[static_cast<std::size_t>(r.diagnosis)];
    ASSERT_LE(r.valid_bytes, buf.size());
    ASSERT_EQ(r.clean(), r.valid_bytes == buf.size());
    if (!r.clean()) {
      ASSERT_EQ(r.error_offset, r.valid_bytes);
    }
    // The valid prefix must be stable: re-scanning exactly those bytes is
    // clean and yields the same records (this is what restore() trusts
    // after truncating the tail).
    const ScanResult again = scan(
        std::span<const std::uint8_t>(buf.data(), r.valid_bytes));
    ASSERT_TRUE(again.clean());
    ASSERT_EQ(again.records.size(), r.records.size());
  }
  // The mutation mix must reach the whole taxonomy except kBadPayload
  // (only reachable through a CRC collision or a handcrafted record — the
  // corpus covers it deterministically).
  for (int d = 0; d < kScanDiagnosisCount; ++d) {
    if (static_cast<ScanDiagnosis>(d) == ScanDiagnosis::kBadPayload)
      continue;
    EXPECT_GT(seen[static_cast<std::size_t>(d)], 0u)
        << scan_diagnosis_name(static_cast<ScanDiagnosis>(d));
  }
}

TEST(DurableFuzz, CorruptedRestoreIsAlwaysWarmOrCold) {
  std::int64_t iterations = 200;
  if (const char* env = std::getenv("CESRM_DURABLE_RESTORE_FUZZ_ITERS")) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) iterations = v;
  }
  util::Rng rng(0x5704E);
  Bench b(11);
  b.transmit(4);
  b.run_until(SimTime::seconds(1));
  DurableConfig config;
  config.mode = DurableMode::kWarm;
  config.flush_every = 1;
  for (std::int64_t iter = 0; iter < iterations; ++iter) {
    AgentStore store(2, config);
    // Journal plausible state through the real sink interface...
    const std::int64_t n = rng.uniform_int(1, 12);
    for (std::int64_t i = 0; i < n; ++i) {
      switch (rng.uniform_int(0, 2)) {
        case 0:
          // Beyond the 4 transmitted packets: phantom horizons a journal
          // from a longer pre-crash run would legitimately claim. Kept
          // small — every phantom want keeps requesting for the whole
          // test, so a large bound just slows the fuzz down.
          store.on_horizon(0, rng.uniform_int(0, 9));
          break;
        case 1:
          store.on_reply_served(0, rng.uniform_int(0, 50),
                                static_cast<NodeId>(rng.uniform_int(0, 6)),
                                rng.uniform_int(0, 1) == 1);
          break;
        case 2: {
          net::RecoveryAnnotation ann;
          ann.requestor = static_cast<NodeId>(rng.uniform_int(0, 6));
          ann.replier = static_cast<NodeId>(rng.uniform_int(0, 6));
          ann.dist_requestor_source = 0.01;
          ann.dist_replier_requestor = 0.01;
          store.on_cache_tuple(0, rng.uniform_int(0, 50), ann);
          break;
        }
      }
    }
    // ...then damage the stable journal arbitrarily and restore into a
    // real failed agent: the worst allowed outcome is a cold rejoin.
    Bytes* journal = store.mutable_stable_journal();
    std::vector<std::size_t> no_offsets{0, journal->size()};
    const std::int64_t n_mut = rng.uniform_int(0, 3);
    for (std::int64_t m = 0; m < n_mut; ++m)
      mutate_journal(journal, no_offsets, rng, /*splice_max_seq=*/12);

    b.at(2).fail();
    ASSERT_NO_THROW(store.restore(b.at(2)));
    b.at(2).recover(SimTime::millis(1));
    if (iter % 20 == 0) b.run_until(b.sim.now() + SimTime::millis(500));
  }
  b.run_until(b.sim.now() + SimTime::seconds(10));
}

// --------------------------------------------------------------- corpus --

Bytes parse_hex_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  Bytes out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    int hi = -1;
    for (char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      const int v = std::isdigit(static_cast<unsigned char>(c))
                        ? c - '0'
                        : std::tolower(static_cast<unsigned char>(c)) - 'a' +
                              10;
      EXPECT_GE(v, 0) << "bad hex in " << path;
      EXPECT_LT(v, 16) << "bad hex in " << path;
      if (hi < 0) {
        hi = v;
      } else {
        out.push_back(static_cast<std::uint8_t>(hi * 16 + v));
        hi = -1;
      }
    }
    EXPECT_EQ(hi, -1) << "odd hex digit count in " << path;
  }
  return out;
}

/// Corpus files spell the diagnosis without the redundant "bad_" prefix:
/// "bad-magic-…" for kBadMagic, "bad-torn_tail-…" for kTornTail.
std::string short_diagnosis_name(ScanDiagnosis d) {
  std::string name = scan_diagnosis_name(d);
  if (name.starts_with("bad_")) name = name.substr(4);
  return name;
}

std::optional<ScanDiagnosis> expected_diagnosis_from_name(
    const std::string& stem) {
  if (!stem.starts_with("bad-")) return std::nullopt;
  const std::string rest = stem.substr(4);
  for (int d = 1; d < kScanDiagnosisCount; ++d) {
    const auto diagnosis = static_cast<ScanDiagnosis>(d);
    if (rest.starts_with(short_diagnosis_name(diagnosis))) return diagnosis;
  }
  ADD_FAILURE() << "corpus file " << stem << " names no known diagnosis";
  return std::nullopt;
}

// Replays the committed corrupted-journal corpus: ok-* files must scan
// clean; bad-<diagnosis>-* files must stop with exactly that diagnosis
// (the name encodes the verdict, like the wire corpus).
TEST(DurableCorpus, RegressionCorpusReplays) {
  const std::filesystem::path dir = CESRM_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".hex") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "empty corpus at " << dir;
  std::size_t ok_files = 0, bad_files = 0;
  std::set<ScanDiagnosis> bad_kinds;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string stem = path.stem().string();
    const Bytes bytes = parse_hex_file(path);
    const ScanResult r = scan(bytes);
    if (stem.starts_with("ok-")) {
      ++ok_files;
      EXPECT_TRUE(r.clean())
          << "stopped with " << scan_diagnosis_name(r.diagnosis) << " at "
          << r.error_offset;
      EXPECT_FALSE(r.records.empty());
    } else {
      ++bad_files;
      const auto want = expected_diagnosis_from_name(stem);
      ASSERT_TRUE(want.has_value()) << "unrecognized corpus file name";
      EXPECT_EQ(r.diagnosis, *want)
          << "got " << scan_diagnosis_name(r.diagnosis) << " at "
          << r.error_offset;
      bad_kinds.insert(r.diagnosis);
    }
  }
  // At least one clean journal per record kind and every non-clean
  // diagnosis represented.
  EXPECT_GE(ok_files, 4u);
  EXPECT_EQ(bad_kinds.size(),
            static_cast<std::size_t>(kScanDiagnosisCount - 1));
  EXPECT_GE(bad_files, static_cast<std::size_t>(kScanDiagnosisCount - 1));
}

}  // namespace
}  // namespace cesrm::durable
