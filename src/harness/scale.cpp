#include "harness/scale.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "harness/group.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/topology_builder.hpp"
#include "obs/sketch.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "srm/receiver_block.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::harness {

namespace {

/// How far the packed heaviest shard may exceed an even share before
/// partition_tree splits another piece. Each split cuts more tree edges,
/// and every cut edge turns its traffic into cross-shard posts. At 3%,
/// the heaviest shard of perfbench's and bench_scale's 10^5 trees
/// executes at most 9% more events than the mean at 2-4 shards.
constexpr double kBalanceTolerance = 0.03;

// The transmission every scale run sends: one data packet per kDataPeriod
// from kScaleWarmup on (the scale path's own warm-up, not the experiments'
// 5 s harness::kWarmup), one session round per block per kSessionPeriod,
// and kDrain after the last packet for the tail recoveries.
constexpr sim::SimTime kScaleWarmup = sim::SimTime::seconds(1);
constexpr sim::SimTime kDataPeriod = sim::SimTime::millis(40);
constexpr sim::SimTime kSessionPeriod = sim::SimTime::seconds(1);
constexpr sim::SimTime kDrain = sim::SimTime::seconds(30);

/// Expected events at each node of a scale run, from the traffic the run
/// generates. Every flood (a data packet, its repair, and under SRM each
/// losing block's own request) arrives once at every node but its
/// sender. Every unicast (a block's session rounds, and under CESRM its
/// expedited requests) arrives at each node on the block's path to the
/// root, so a router carries one per block below it and the root all of
/// them. A block's own timers (gap detection, requests, session rounds)
/// add about one block's unicasts at its leaf. The model leaves out the
/// SRM requests CESRM blocks multicast before their first recovery or
/// after a failed expedited attempt. On bench_scale's 10^5 tree, whose
/// leaves all sit at depth 5, they outnumber the modelled floods more
/// than four to one, so there the model overweights the root.
std::vector<double> node_load(const net::MulticastTree& tree,
                              const ScaleConfig& config) {
  const double packets = static_cast<double>(config.packets);
  const double blocks = static_cast<double>(tree.receivers().size());
  // Chance that a block has at least one member missing a given packet.
  const double block_loss =
      1.0 - std::pow(1.0 - config.member_loss,
                     static_cast<double>(config.block_members));
  double floods = 2.0 * packets;
  double unicasts = packets * (kDataPeriod / kSessionPeriod);
  if (config.protocol == Protocol::kCesrm)
    unicasts += packets * block_loss;
  else
    floods += blocks * packets * block_loss;
  std::vector<double> load(tree.size());
  for (std::size_t v = 0; v < tree.size(); ++v) {
    const auto node = static_cast<net::NodeId>(v);
    const double below =
        static_cast<double>(tree.subtree_receivers(node).size());
    load[v] = tree.is_root(node)
                  ? unicasts * below
                  : floods + unicasts * (below + (tree.is_leaf(node) ? 1 : 0));
  }
  return load;
}

}  // namespace

std::vector<int> partition_tree(const net::MulticastTree& tree,
                                const ScaleConfig& config) {
  const int shards = config.shards;
  std::vector<int> shard_of(tree.size(), 0);
  if (shards <= 1) return shard_of;
  const std::vector<double> own = node_load(tree, config);
  const net::NodeId root = tree.root();

  // Subtree loads, children folded into parents in reverse BFS order.
  std::vector<net::NodeId> order{root};
  for (std::size_t i = 0; i < order.size(); ++i)
    for (net::NodeId c : tree.children(order[i])) order.push_back(c);
  std::vector<double> subtree = own;
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (!tree.is_root(*it))
      subtree[static_cast<std::size_t>(tree.parent(*it))] +=
          subtree[static_cast<std::size_t>(*it)];
  const auto sub = [&subtree](net::NodeId v) {
    return subtree[static_cast<std::size_t>(v)];
  };
  const double share = sub(root) / shards;

  // A piece is a subtree, plus the split routers that follow its head.
  struct Piece {
    net::NodeId head = net::kInvalidNode;
    double load = 0;
    std::vector<net::NodeId> routers;
  };
  std::vector<Piece> pieces;
  for (net::NodeId c : tree.children(root)) pieces.push_back({c, sub(c), {}});

  // Longest-first onto the least-loaded shard, shard 0 already charged
  // with the root (ScaleSource and the transmission live there). Returns
  // the heaviest shard's load; bin[i] is pieces[i]'s shard.
  std::vector<int> bin;
  const auto pack = [&] {
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) {
                return a.load != b.load ? a.load > b.load : a.head < b.head;
              });
    std::vector<double> shard_load(static_cast<std::size_t>(shards), 0.0);
    shard_load[0] = own[static_cast<std::size_t>(root)];
    bin.clear();
    for (const Piece& p : pieces) {
      const auto least =
          std::min_element(shard_load.begin(), shard_load.end());
      *least += p.load;
      bin.push_back(static_cast<int>(least - shard_load.begin()));
    }
    return *std::max_element(shard_load.begin(), shard_load.end());
  };

  // Replace the heaviest splittable piece by its child subtrees until the
  // packing is within tolerance of an even share. The split router rides
  // with its heaviest child, so its load still counts where it will run.
  while (pack() > share * (1.0 + kBalanceTolerance)) {
    const auto heaviest =
        std::find_if(pieces.begin(), pieces.end(),
                     [&tree](const Piece& p) { return !tree.is_leaf(p.head); });
    if (heaviest == pieces.end()) break;
    Piece split = std::move(*heaviest);
    pieces.erase(heaviest);
    const auto& kids = tree.children(split.head);
    const net::NodeId top = *std::min_element(
        kids.begin(), kids.end(), [&sub](net::NodeId a, net::NodeId b) {
          return sub(a) != sub(b) ? sub(a) > sub(b) : a < b;
        });
    const double riders = split.load - sub(split.head) +
                          own[static_cast<std::size_t>(split.head)];
    split.routers.push_back(split.head);
    for (net::NodeId c : kids) {
      if (c == top)
        pieces.push_back({c, sub(c) + riders, std::move(split.routers)});
      else
        pieces.push_back({c, sub(c), {}});
    }
  }

  for (std::size_t i = 0; i < pieces.size(); ++i) {
    std::vector<net::NodeId> stack{pieces[i].head};
    while (!stack.empty()) {
      const net::NodeId v = stack.back();
      stack.pop_back();
      shard_of[static_cast<std::size_t>(v)] = bin[i];
      for (net::NodeId w : tree.children(v)) stack.push_back(w);
    }
    for (net::NodeId r : pieces[i].routers)
      shard_of[static_cast<std::size_t>(r)] = bin[i];
  }
  return shard_of;
}

namespace {

/// The data source of a scale run: emits the transmission, answers repair
/// requests. Root-attached, so it executes exclusively on shard 0's
/// thread — its state needs no synchronization.
class ScaleSource : public net::Agent {
 public:
  ScaleSource(sim::Simulator& sim, net::Network& network, net::NodeId node,
              sim::SimTime reply_guard)
      : sim_(sim), network_(network), node_(node), reply_guard_(reply_guard) {
    network_.attach(node_, this);
  }

  void on_packet(const net::Packet& pkt) override {
    switch (pkt.type) {
      case net::PacketType::kRequest: {
        // SRM-style multicast repair — but at most one retransmission of
        // a seq per guard window: concurrent requestors are served by the
        // same flood, exactly like timer suppression would arrange.
        if (!should_reply(pkt.seq)) return;
        net::RecoveryAnnotation ann = pkt.ann;
        ann.replier = node_;
        network_.multicast(node_,
                           net::make_reply_packet(node_, node_, pkt.seq, ann));
        break;
      }
      case net::PacketType::kExpRequest: {
        // CESRM expedited repair: the *request* came unicast from the
        // cached requestor, but the repair itself is multicast like every
        // SRM-family retransmission — one flood serves all blocks that
        // lost the packet, so the source's downlinks carry O(1) repairs
        // per seq instead of O(blocks). Shares the per-seq guard with the
        // kRequest path: a flood is a flood, whoever triggered it.
        if (!should_reply(pkt.seq)) return;
        net::RecoveryAnnotation ann = pkt.ann;
        ann.replier = node_;
        network_.multicast(
            node_, net::make_exp_reply_packet(node_, node_, pkt.seq, ann));
        break;
      }
      case net::PacketType::kSession:
        ++sessions_received_;
        break;
      default:
        break;
    }
  }

  std::uint64_t sessions_received() const { return sessions_received_; }

 private:
  /// One retransmission flood of a seq per guard window, shared across
  /// the plain and expedited request paths.
  bool should_reply(net::SeqNo seq) {
    const sim::SimTime last = last_reply_.count(seq)
                                  ? last_reply_[seq]
                                  : sim::SimTime::zero() - reply_guard_;
    if (sim_.now() - last < reply_guard_) return false;
    last_reply_[seq] = sim_.now();
    return true;
  }

  sim::Simulator& sim_;
  net::Network& network_;
  const net::NodeId node_;
  const sim::SimTime reply_guard_;
  std::map<net::SeqNo, sim::SimTime> last_reply_;
  std::uint64_t sessions_received_ = 0;
};

net::MulticastTree build_scale_tree(std::uint64_t blocks, int depth,
                                    std::uint64_t seed) {
  net::TreeShape shape;
  shape.receivers = static_cast<int>(blocks);
  shape.depth = depth;
  // Widen the branching cap until `depth` levels can carry every leaf.
  while (std::pow(static_cast<double>(shape.max_branching), depth) <
         static_cast<double>(blocks))
    ++shape.max_branching;
  util::Rng rng(seed);
  return net::build_random_tree(shape, rng);
}

}  // namespace

ScaleResult run_scale(const ScaleConfig& config) {
  CESRM_CHECK_MSG(config.protocol == Protocol::kSrm ||
                      config.protocol == Protocol::kCesrm,
                  "scale runs SRM or CESRM receiver blocks (valid: srm, "
                  "cesrm; got "
                      << protocol_name(config.protocol)
                      << ", which has no block model)");
  CESRM_CHECK_MSG(config.receivers >= 1, "scale run needs >= 1 receiver");
  CESRM_CHECK_MSG(config.block_members >= 1, "block size must be >= 1");
  CESRM_CHECK_MSG(config.packets >= 1, "scale run needs >= 1 data packet");
  CESRM_CHECK_MSG(config.shards >= 1,
                  "scale run needs >= 1 shard (got " << config.shards << ")");
  const std::uint64_t blocks =
      (config.receivers + config.block_members - 1) / config.block_members;
  CESRM_CHECK_MSG(blocks <= 1u << 22, "too many blocks for one tree");

  const net::MulticastTree tree =
      build_scale_tree(blocks, config.tree_depth, config.seed);
  const net::NodeId root = tree.root();
  CESRM_CHECK(tree.receivers().size() == blocks);

  net::NetworkConfig netcfg;  // the paper's 1.5 Mbps / 20 ms defaults
  sim::ShardedEngine engine(partition_tree(tree, config), config.shards,
                            netcfg.link_delay);
  sim::Simulator& root_sim = engine.sim(0);
  const auto sim_of = [&engine](net::NodeId node) -> sim::Simulator& {
    return engine.sim(engine.shard_of(node));
  };

  net::Network network(root_sim, tree, netcfg);
  network.enable_sharding(&engine);

  // Reply-suppression guard: one retransmission flood covers every
  // requestor, so suppress duplicates for a full deepest-path round trip.
  sim::SimTime max_path = sim::SimTime::zero();
  for (net::NodeId leaf : tree.receivers())
    max_path = std::max(max_path, network.path_delay(root, leaf));
  ScaleSource source(root_sim, network, root, max_path * std::int64_t{4});

  // --- receiver blocks, struct-of-arrays, one per leaf ------------------
  std::vector<std::unique_ptr<srm::ReceiverBlock>> block_agents;
  block_agents.reserve(blocks);
  std::uint64_t remaining = config.receivers;
  for (net::NodeId leaf : tree.receivers()) {
    srm::ReceiverBlockConfig bc;
    bc.members = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, config.block_members));
    remaining -= bc.members;
    bc.member_loss = config.member_loss;
    bc.expedited = config.protocol == Protocol::kCesrm;
    std::uint64_t h = config.seed ^
                      (static_cast<std::uint64_t>(leaf) *
                       0x9E3779B97F4A7C15ULL);
    block_agents.push_back(std::make_unique<srm::ReceiverBlock>(
        sim_of(leaf), network, leaf, root, bc, util::splitmix64(h)));
  }
  CESRM_CHECK(remaining == 0);

  const sim::SimTime data_end =
      kScaleWarmup + kDataPeriod * static_cast<std::int64_t>(config.packets);
  const sim::SimTime horizon = data_end + kDrain;

  // --- pre-aggregated session traffic: one packet per block per period --
  // Each block's chain lives on its own shard's simulator and bumps only
  // its own round counter, so shards never share mutable state.
  std::vector<std::uint64_t> rounds(blocks, 0);
  std::vector<std::function<void()>> session_fns(blocks);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const net::NodeId leaf = block_agents[b]->node();
    sim::Simulator& bsim = sim_of(leaf);
    session_fns[b] = [&network, &bsim, &rounds, &session_fns, b, leaf, root,
                      data_end] {
      ++rounds[b];
      net::Packet p = net::make_session_packet(leaf, root, nullptr);
      p.dest = root;
      network.unicast(leaf, p);
      if (bsim.now() + kSessionPeriod <= data_end)
        bsim.schedule_in(kSessionPeriod,
                         [&session_fns, b] { session_fns[b](); });
    };
    // Stagger offsets deterministically across the period.
    const sim::SimTime offset = sim::SimTime::nanos(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(kSessionPeriod.ns()) * b / blocks));
    bsim.schedule_at(kScaleWarmup + offset,
                     [&session_fns, b] { session_fns[b](); });
  }

  // --- the transmission -------------------------------------------------
  ChainedSource transmission(
      root_sim, kDataPeriod, config.packets,
      [&network, root](net::SeqNo seq) {
        network.multicast(root, net::make_data_packet(root, seq));
      });
  transmission.start(kScaleWarmup);

  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- collection -------------------------------------------------------
  ScaleResult r;
  r.receivers = config.receivers;
  r.blocks = blocks;
  r.tree_nodes = tree.size();
  r.events_executed = engine.events_executed();
  for (int s = 0; s < engine.shards(); ++s)
    r.shard_events.push_back(engine.sim(s).events_executed());
  r.wall_seconds = wall;

  obs::LogHistogram latency;
  std::vector<srm::SessionSummary> leaf_summary(tree.size());
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const auto& blk = *block_agents[b];
    r.losses += blk.losses();
    r.recovered += blk.recovered();
    r.outstanding += blk.outstanding();
    r.window_overflows += blk.window_overflows();
    r.requests_sent += blk.requests_sent();
    latency.merge(blk.recovery_latency());
    leaf_summary[static_cast<std::size_t>(blk.node())] = blk.summary();
    r.session_rounds += rounds[b];
    r.flat_session_crossings +=
        rounds[b] * leaf_summary[static_cast<std::size_t>(blk.node())].members *
        static_cast<std::uint64_t>(tree.link_count());
  }
  r.recovery_p50_ns = latency.quantile(0.5);
  r.recovery_p99_ns = latency.quantile(0.99);
  r.session_crossings =
      network.total_crossings().unicast_of(net::PacketType::kSession);
  r.root_summary = srm::aggregate_up(tree, leaf_summary)[
      static_cast<std::size_t>(root)];
  for (const auto& blk : block_agents) r.member_state_bytes += blk->state_bytes();
  r.bytes_per_receiver =
      static_cast<double>(r.member_state_bytes) /
      static_cast<double>(config.receivers);
  return r;
}

}  // namespace cesrm::harness
