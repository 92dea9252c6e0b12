// Property tests for the pluggable cache-policy laboratory: per-policy
// replacement behavior (eviction exactly at capacity, confidence
// weighting, shard capacity splitting, oracle link-indexed lookup), the
// recency policy's bit-equivalence with the legacy §3.1 cache, the shared
// enum-name spelling tables, cache-stats accounting, and the determinism
// contract at the experiment level (same job → identical outcome for any
// worker count, for every policy). Runs under the CTest label `cache`.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cesrm/cache.hpp"
#include "harness/runner.hpp"
#include "protocol.hpp"
#include "trace/catalog.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::cesrm {
namespace {

using net::LinkId;
using net::NodeId;
using net::SeqNo;

RecoveryTuple tuple(SeqNo seq, NodeId q, double dqs, NodeId r, double drq,
                    NodeId turning_point = net::kInvalidNode) {
  RecoveryTuple t;
  t.seq = seq;
  t.requestor = q;
  t.dist_requestor_source = dqs;
  t.replier = r;
  t.dist_replier_requestor = drq;
  t.turning_point = turning_point;
  return t;
}

CacheConfig config_for(CachePolicyKind kind, std::size_t capacity) {
  CacheConfig config;
  config.policy = kind;
  config.capacity = capacity;
  return config;
}

bool cached(const RecoveryCache& cache, SeqNo seq) {
  for (const auto& t : cache.snapshot())
    if (t.seq == seq) return true;
  return false;
}

void expect_same_tuple(const RecoveryTuple& a, const RecoveryTuple& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.requestor, b.requestor);
  EXPECT_EQ(a.replier, b.replier);
  EXPECT_DOUBLE_EQ(a.dist_requestor_source, b.dist_requestor_source);
  EXPECT_DOUBLE_EQ(a.dist_replier_requestor, b.dist_replier_requestor);
  EXPECT_EQ(a.turning_point, b.turning_point);
}

/// Scripted side info for the confidence and oracle policies: per-seq
/// confidence and per-seq true drop link, plus a record of the identities
/// the policy asked about.
class ScriptedSideInfo final : public CacheSideInfo {
 public:
  std::map<SeqNo, double> confidences;
  std::map<SeqNo, LinkId> drop_links;
  mutable std::vector<std::pair<NodeId, NodeId>> asked;  // (observer, source)

  double confidence(NodeId observer, NodeId source,
                    SeqNo seq) const override {
    asked.emplace_back(observer, source);
    const auto it = confidences.find(seq);
    return it != confidences.end() ? it->second : 1.0;
  }

  LinkId drop_link(NodeId observer, NodeId source, SeqNo seq) const override {
    asked.emplace_back(observer, source);
    const auto it = drop_links.find(seq);
    return it != drop_links.end() ? it->second : net::kInvalidLink;
  }
};

// ------------------------------------------------------- spelling tables ----

TEST(CachePolicyNames, RoundTripEveryKind) {
  for (const CachePolicyKind kind : kAllCachePolicyKinds) {
    const std::string name = cache_policy_name(kind);
    EXPECT_NE(name, "?");
    const auto parsed = try_parse_cache_policy(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(parse_cache_policy(name), kind);
    // Every spelling appears in the --help / error list.
    EXPECT_NE(std::string(cache_policy_names()).find(name),
              std::string::npos);
  }
  EXPECT_EQ(kAllCachePolicyKinds.front(), CachePolicyKind::kRecency);
  EXPECT_EQ(kAllCachePolicyKinds.back(), CachePolicyKind::kOracle);
}

TEST(CachePolicyNames, ParseErrorListsValidSpellings) {
  EXPECT_FALSE(try_parse_cache_policy("mru").has_value());
  try {
    parse_cache_policy("mru");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown cache policy 'mru'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("valid: recency, confidence, sharded, oracle"),
              std::string::npos)
        << what;
  }
}

TEST(CachePolicyNames, ProtocolTableUsesSameConventions) {
  EXPECT_EQ(parse_protocol("srm"), Protocol::kSrm);
  EXPECT_EQ(parse_protocol("cesrm"), Protocol::kCesrm);
  EXPECT_FALSE(try_parse_protocol("tcp").has_value());
  try {
    parse_protocol("tcp");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown protocol 'tcp'"), std::string::npos) << what;
    EXPECT_NE(what.find("valid: srm, cesrm"), std::string::npos) << what;
  }
}

// -------------------------------------------------- cross-policy properties --

TEST(AllPolicies, SizeNeverExceedsCapacityAndFillsExactly) {
  for (const CachePolicyKind kind : kAllCachePolicyKinds) {
    CacheConfig config = config_for(kind, 4);
    config.shards = 3;  // shard capacities 2, 1, 1
    RecoveryCache cache(config);
    EXPECT_EQ(cache.capacity(), 4u);
    // Requestors cycle through every shard residue, so each shard sees
    // more inserts than its share and every policy ends exactly full.
    for (SeqNo seq = 0; seq < 12; ++seq) {
      cache.update(tuple(seq, static_cast<NodeId>(seq % 6), 0.02,
                         static_cast<NodeId>(10 + seq % 3), 0.01));
      EXPECT_LE(cache.size(), 4u) << cache_policy_name(kind);
    }
    EXPECT_EQ(cache.size(), 4u) << cache_policy_name(kind);
    EXPECT_EQ(cache.policy_kind(), kind);
  }
}

TEST(AllPolicies, CapacityOneHoldsOneTuple) {
  for (const CachePolicyKind kind : kAllCachePolicyKinds) {
    RecoveryCache cache(config_for(kind, 1));
    for (SeqNo seq = 0; seq < 5; ++seq)
      cache.update(tuple(seq, 1, 0.02, 2, 0.01));
    EXPECT_EQ(cache.size(), 1u) << cache_policy_name(kind);
    const auto recent = cache.most_recent();
    ASSERT_TRUE(recent.has_value()) << cache_policy_name(kind);
    EXPECT_EQ(recent->seq, 4) << cache_policy_name(kind);
  }
}

TEST(AllPolicies, CapacityZeroIsRejected) {
  for (const CachePolicyKind kind : kAllCachePolicyKinds)
    EXPECT_THROW(RecoveryCache(config_for(kind, 0)), util::CheckError)
        << cache_policy_name(kind);
  EXPECT_THROW(RecoveryCache(0), util::CheckError);
}

TEST(AllPolicies, SnapshotIsPacketOrderedOldestFirst) {
  for (const CachePolicyKind kind : kAllCachePolicyKinds) {
    RecoveryCache cache(config_for(kind, 8));
    for (const SeqNo seq : {7, 3, 9, 5})
      cache.update(tuple(seq, static_cast<NodeId>(seq), 0.02, 1, 0.01));
    const auto snap = cache.snapshot();
    ASSERT_EQ(snap.size(), 4u) << cache_policy_name(kind);
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                               [](const RecoveryTuple& a,
                                  const RecoveryTuple& b) {
                                 return a.seq < b.seq;
                               }))
        << cache_policy_name(kind);
  }
}

TEST(AllPolicies, UpdateValidatesTuples) {
  for (const CachePolicyKind kind : kAllCachePolicyKinds) {
    RecoveryCache cache(config_for(kind, 4));
    EXPECT_THROW(cache.update(tuple(-1, 1, 0.02, 2, 0.01)), util::CheckError);
    EXPECT_THROW(cache.update(tuple(3, net::kInvalidNode, 0.02, 2, 0.01)),
                 util::CheckError);
    EXPECT_THROW(cache.update(tuple(3, 1, 0.02, net::kInvalidNode, 0.01)),
                 util::CheckError);
    EXPECT_TRUE(cache.empty()) << cache_policy_name(kind);
  }
}

// ---------------------------------------------- recency ≡ legacy cache ----

/// The legacy §3.1 cache, re-stated independently: optimal tuple per
/// packet (strictly smaller delay replaces), full cache ignores packets
/// older than everything cached and otherwise evicts the least recent
/// packet. The recency policy must agree with this model step for step.
class LegacyModel {
 public:
  explicit LegacyModel(std::size_t capacity) : capacity_(capacity) {}

  bool update(const RecoveryTuple& t) {
    if (auto it = entries_.find(t.seq); it != entries_.end()) {
      if (t.recovery_delay() < it->second.recovery_delay()) {
        it->second = t;
        return true;
      }
      return false;
    }
    if (entries_.size() >= capacity_) {
      if (t.seq < entries_.begin()->first) return false;
      entries_.erase(entries_.begin());
    }
    entries_.emplace(t.seq, t);
    return true;
  }

  const std::map<SeqNo, RecoveryTuple>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  std::map<SeqNo, RecoveryTuple> entries_;
};

TEST(RecencyPolicy, BitEquivalentWithLegacyCache) {
  for (const std::size_t capacity : {1u, 2u, 5u, 16u}) {
    RecoveryCache cache(config_for(CachePolicyKind::kRecency, capacity));
    LegacyModel model(capacity);
    util::Rng rng(0xCACE + capacity);
    for (int step = 0; step < 600; ++step) {
      const auto t = tuple(rng.uniform_int(0, 40),
                           static_cast<NodeId>(rng.uniform_int(1, 8)),
                           0.001 * static_cast<double>(rng.uniform_int(1, 50)),
                           static_cast<NodeId>(rng.uniform_int(1, 8)),
                           0.001 * static_cast<double>(rng.uniform_int(1, 50)));
      EXPECT_EQ(cache.update(t), model.update(t))
          << "capacity " << capacity << " step " << step;
      ASSERT_EQ(cache.size(), model.entries().size());
      const auto snap = cache.snapshot();
      std::size_t i = 0;
      for (const auto& [seq, expected] : model.entries())
        expect_same_tuple(snap[i++], expected);
      if (!model.entries().empty()) {
        const auto recent = cache.most_recent();
        ASSERT_TRUE(recent.has_value());
        expect_same_tuple(*recent, model.entries().rbegin()->second);
      }
    }
  }
}

TEST(RecencyPolicy, LegacyConstructorSelectsRecency) {
  RecoveryCache cache(4);
  EXPECT_EQ(cache.policy_kind(), CachePolicyKind::kRecency);
  EXPECT_EQ(cache.capacity(), 4u);
}

// ---------------------------------------------------------- confidence ----

TEST(ConfidencePolicy, EvictsTheLeastTrustedTuple) {
  ScriptedSideInfo side;
  side.confidences = {{1, 0.9}, {2, 0.2}, {3, 0.5}, {4, 0.1}};
  CacheConfig config = config_for(CachePolicyKind::kConfidence, 2);
  config.side_info = &side;
  RecoveryCache cache(config, /*owner=*/7, /*source=*/0);
  cache.update(tuple(1, 3, 0.1, 4, 0.1));
  cache.update(tuple(2, 3, 0.1, 4, 0.1));
  // Weight 0.5 displaces the least trusted resident (seq 2, weight 0.2).
  EXPECT_TRUE(cache.update(tuple(3, 3, 0.1, 4, 0.1)));
  EXPECT_TRUE(cached(cache, 1));
  EXPECT_FALSE(cached(cache, 2));
  EXPECT_TRUE(cached(cache, 3));
  // Weight 0.1 is below every resident: refused admission.
  EXPECT_FALSE(cache.update(tuple(4, 3, 0.1, 4, 0.1)));
  EXPECT_FALSE(cached(cache, 4));
  EXPECT_EQ(cache.stats().rejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The policy asked about this owner's view of this source's stream.
  ASSERT_FALSE(side.asked.empty());
  for (const auto& [observer, source] : side.asked) {
    EXPECT_EQ(observer, 7);
    EXPECT_EQ(source, 0);
  }
}

TEST(ConfidencePolicy, SamePacketPrefersTrustThenDelay) {
  ScriptedSideInfo side;
  side.confidences = {{1, 0.5}};
  CacheConfig config = config_for(CachePolicyKind::kConfidence, 2);
  config.side_info = &side;
  RecoveryCache cache(config, 7, 0);
  cache.update(tuple(1, 3, 0.1, 4, 0.2));
  // Equal trust: the §3.1 delay objective decides.
  EXPECT_FALSE(cache.update(tuple(1, 3, 0.1, 5, 0.3)));  // worse delay
  EXPECT_TRUE(cache.update(tuple(1, 3, 0.1, 5, 0.05)));  // better delay
}

TEST(ConfidencePolicy, WithoutSideInfoBehavesLikeUnweightedRecencyAdmission) {
  // All weights default to 1.0: same-packet updates fall back to the
  // delay objective and a full cache evicts the oldest (first min scan).
  RecoveryCache cache(config_for(CachePolicyKind::kConfidence, 2));
  cache.update(tuple(1, 3, 0.1, 4, 0.2));
  EXPECT_TRUE(cache.update(tuple(1, 3, 0.1, 5, 0.05)));
  cache.update(tuple(2, 3, 0.1, 4, 0.1));
  EXPECT_TRUE(cache.update(tuple(3, 3, 0.1, 4, 0.1)));
  EXPECT_FALSE(cached(cache, 1));  // oldest evicted on weight ties
  EXPECT_TRUE(cached(cache, 2));
  EXPECT_TRUE(cached(cache, 3));
}

// -------------------------------------------------------------- sharded ----

TEST(ShardedPolicy, SplitsCapacityExactlyAcrossSubtrees) {
  CacheConfig config = config_for(CachePolicyKind::kSharded, 5);
  config.shards = 2;  // shard capacities 3 and 2
  RecoveryCache cache(config);
  EXPECT_EQ(cache.capacity(), 5u);
  // Turning points alternate between the two shards; each shard sees five
  // inserts, so both fill to their share and the total is exactly 5.
  for (SeqNo seq = 0; seq < 10; ++seq)
    cache.update(tuple(seq, 1, 0.1, 2, 0.1,
                       /*turning_point=*/static_cast<NodeId>(20 + seq % 2)));
  EXPECT_EQ(cache.size(), 5u);
  const auto recent = cache.most_recent();
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(recent->seq, 9);  // max across shards, not per shard
}

TEST(ShardedPolicy, MoreShardsThanCapacityCollapses) {
  CacheConfig config = config_for(CachePolicyKind::kSharded, 2);
  config.shards = 8;  // only 2 shards can exist with capacity 1 each
  RecoveryCache cache(config);
  for (SeqNo seq = 0; seq < 6; ++seq)
    cache.update(tuple(seq, static_cast<NodeId>(seq), 0.1, 2, 0.1));
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(cache.size(), 1u);
}

TEST(ShardedPolicy, HotSubtreeCannotMonopolizeTheCache) {
  CacheConfig config = config_for(CachePolicyKind::kSharded, 4);
  config.shards = 2;
  RecoveryCache cache(config);
  // A flood from turning point 20 (one shard)...
  for (SeqNo seq = 0; seq < 8; ++seq)
    cache.update(tuple(seq, 1, 0.1, 2, 0.1, /*turning_point=*/20));
  // ...leaves the other shard's tuple untouched.
  cache.update(tuple(100, 1, 0.1, 2, 0.1, /*turning_point=*/21));
  for (SeqNo seq = 8; seq < 16; ++seq)
    cache.update(tuple(seq, 1, 0.1, 2, 0.1, /*turning_point=*/20));
  EXPECT_TRUE(cached(cache, 100));
}

// --------------------------------------------------------------- oracle ----

TEST(OraclePolicy, AnswersWithTheTupleCachedForTheTrueLossLink) {
  ScriptedSideInfo side;
  side.drop_links = {{10, 0}, {11, 1}, {12, 0}, {13, 1}};
  CacheConfig config = config_for(CachePolicyKind::kOracle, 4);
  config.side_info = &side;
  RecoveryCache cache(config, 7, 0);
  cache.update(tuple(10, 3, 0.1, 4, 0.1));  // recovered a link-0 loss
  cache.update(tuple(11, 5, 0.1, 6, 0.1));  // recovered a link-1 loss
  // A fresh loss on link 0 is answered with the link-0 tuple even though
  // the link-1 tuple is more recent.
  const auto for_link0 = cache.select(ExpeditionPolicy::kMostRecent, 12);
  ASSERT_TRUE(for_link0.has_value());
  EXPECT_EQ(for_link0->seq, 10);
  const auto for_link1 = cache.select(ExpeditionPolicy::kMostRecent, 13);
  ASSERT_TRUE(for_link1.has_value());
  EXPECT_EQ(for_link1->seq, 11);
}

TEST(OraclePolicy, FallsBackWhenTheLinkHasNoCachedRecovery) {
  ScriptedSideInfo side;
  side.drop_links = {{10, 0}, {99, 5}};  // link 5 never produced a tuple
  CacheConfig config = config_for(CachePolicyKind::kOracle, 4);
  config.side_info = &side;
  RecoveryCache cache(config, 7, 0);
  cache.update(tuple(10, 3, 0.1, 4, 0.1));
  cache.update(tuple(20, 5, 0.1, 6, 0.1));  // unknown link → unindexed
  const auto picked = cache.select(ExpeditionPolicy::kMostRecent, 99);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->seq, 20);  // §3.2 most-recent fallback
}

TEST(OraclePolicy, EvictionDropsTheLinkIndexWithTheTuple) {
  ScriptedSideInfo side;
  side.drop_links = {{1, 0}, {2, 1}, {3, 2}, {50, 0}};
  CacheConfig config = config_for(CachePolicyKind::kOracle, 2);
  config.side_info = &side;
  RecoveryCache cache(config, 7, 0);
  cache.update(tuple(1, 3, 0.1, 4, 0.1));  // link 0
  cache.update(tuple(2, 5, 0.1, 6, 0.1));  // link 1
  cache.update(tuple(3, 8, 0.1, 9, 0.1));  // link 2; evicts seq 1 (link 0)
  // A loss on link 0 must not dangle into the evicted tuple: most-recent
  // fallback answers instead.
  const auto picked = cache.select(ExpeditionPolicy::kMostRecent, 50);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->seq, 3);
}

TEST(OraclePolicy, WithoutSideInfoDegradesToRecency) {
  RecoveryCache cache(config_for(CachePolicyKind::kOracle, 2));
  cache.update(tuple(1, 3, 0.1, 4, 0.1));
  cache.update(tuple(2, 5, 0.1, 6, 0.1));
  EXPECT_FALSE(cache.update(tuple(0, 7, 0.1, 8, 0.1)));  // older-than-all
  const auto picked = cache.select(ExpeditionPolicy::kMostRecent, 42);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->seq, 2);
}

// ---------------------------------------------------------------- stats ----

TEST(CacheStats, CountersMatchTheOperationStream) {
  RecoveryCache cache(config_for(CachePolicyKind::kRecency, 2));
  EXPECT_FALSE(cache.select(ExpeditionPolicy::kMostRecent, 0).has_value());
  cache.update(tuple(1, 3, 0.1, 4, 0.1));              // insertion
  cache.update(tuple(2, 3, 0.1, 4, 0.1));              // insertion
  cache.update(tuple(2, 3, 0.1, 5, 0.05));             // update (better)
  cache.update(tuple(2, 3, 0.1, 6, 0.3));              // reject (worse)
  cache.update(tuple(3, 3, 0.1, 4, 0.1));              // insertion + eviction
  cache.update(tuple(0, 3, 0.1, 4, 0.1));              // reject (older-than-all)
  EXPECT_TRUE(cache.select(ExpeditionPolicy::kMostRecent, 9).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.rejects, 2u);
}

TEST(CacheStats, ShardedSumsShardCountersIntoOneView) {
  CacheConfig config = config_for(CachePolicyKind::kSharded, 4);
  config.shards = 2;
  RecoveryCache cache(config);
  for (SeqNo seq = 0; seq < 8; ++seq)
    cache.update(tuple(seq, 1, 0.1, 2, 0.1,
                       /*turning_point=*/static_cast<NodeId>(seq % 2)));
  cache.select(ExpeditionPolicy::kMostRecent, 9);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 8u);
  EXPECT_EQ(stats.evictions, 4u);  // each shard (capacity 2) evicted twice
  EXPECT_EQ(stats.hits, 1u);
}

// ------------------------------------------- experiment-level contract ----

/// A Table-1 spec scaled down so the experiment-level tests stay fast.
trace::TraceSpec small_spec(int table1_id, net::SeqNo packets) {
  trace::TraceSpec spec = trace::table1_spec(table1_id);
  spec.losses = static_cast<std::int64_t>(
      static_cast<double>(spec.losses) * static_cast<double>(packets) /
      static_cast<double>(spec.packets));
  spec.packets = packets;
  return spec;
}

std::vector<harness::ExperimentJob> one_job_per_policy() {
  std::vector<harness::ExperimentJob> jobs;
  for (const CachePolicyKind kind : kAllCachePolicyKinds) {
    harness::ExperimentJob job;
    job.spec = small_spec(1, 300);
    job.protocol = Protocol::kCesrm;
    job.config.cesrm.cache.policy = kind;
    job.label = cache_policy_name(kind);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(CachePolicyExperiments, EveryPolicyIsJobCountInvariant) {
  harness::RunnerOptions serial;
  serial.jobs = 1;
  harness::ExperimentRunner runner1(serial);
  const auto a = runner1.run(one_job_per_policy());

  harness::RunnerOptions pooled;
  pooled.jobs = 3;
  harness::ExperimentRunner runner3(pooled);
  const auto b = runner3.run(one_job_per_policy());

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    EXPECT_EQ(a[i].result.packets_sent, b[i].result.packets_sent);
    EXPECT_EQ(a[i].result.events_executed, b[i].result.events_executed);
    EXPECT_EQ(a[i].result.total_losses_detected(),
              b[i].result.total_losses_detected());
    EXPECT_EQ(a[i].result.total_recovered(), b[i].result.total_recovered());
    EXPECT_EQ(a[i].result.total_requests_sent(),
              b[i].result.total_requests_sent());
    EXPECT_EQ(a[i].result.total_replies_sent(),
              b[i].result.total_replies_sent());
    EXPECT_DOUBLE_EQ(a[i].result.mean_normalized_recovery_time(),
                     b[i].result.mean_normalized_recovery_time());
    // Cache counters obey the same contract: bit-identical per worker
    // count, member for member.
    ASSERT_EQ(a[i].result.members.size(), b[i].result.members.size());
    for (std::size_t m = 0; m < a[i].result.members.size(); ++m) {
      EXPECT_EQ(a[i].result.members[m].stats.cache_hits,
                b[i].result.members[m].stats.cache_hits);
      EXPECT_EQ(a[i].result.members[m].stats.cache_misses,
                b[i].result.members[m].stats.cache_misses);
      EXPECT_EQ(a[i].result.members[m].stats.cache_evictions,
                b[i].result.members[m].stats.cache_evictions);
    }
  }
}

TEST(CachePolicyExperiments, EverySelectIsOneLossDetection) {
  // The agent consults the cache exactly once per detected loss, so for
  // every policy: Σ (hits + misses) == Σ losses_detected.
  harness::RunnerOptions options;
  options.jobs = 0;
  harness::ExperimentRunner runner(options);
  const auto outcomes = runner.run(one_job_per_policy());
  for (const auto& outcome : outcomes) {
    SCOPED_TRACE(outcome.label);
    std::uint64_t consulted = 0;
    for (const auto& m : outcome.result.members)
      consulted += m.stats.cache_hits + m.stats.cache_misses;
    EXPECT_EQ(consulted, outcome.result.total_losses_detected());
    EXPECT_GT(consulted, 0u);  // the workload actually exercised the cache
  }
}

}  // namespace
}  // namespace cesrm::cesrm
