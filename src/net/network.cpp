#include "net/network.hpp"

#include "obs/trace_recorder.hpp"
#include "util/check.hpp"

namespace cesrm::net {

namespace {
void record_drop(sim::Simulator& sim, const Packet& pkt, NodeId from,
                 NodeId to) {
  if (auto* rec = sim.recorder())
    rec->emit(sim.now(), obs::EventKind::kPacketDropped, to, pkt.source,
              pkt.seq, from, static_cast<std::int64_t>(pkt.type));
}
}  // namespace

Network::Network(sim::Simulator& sim, const MulticastTree& tree,
                 NetworkConfig config)
    : sim_(sim),
      tree_(tree),
      config_(config),
      agents_(tree.size(), nullptr),
      busy_(tree.size(), {sim::SimTime::zero(), sim::SimTime::zero()}),
      link_up_(tree.size(), 1) {
  CESRM_CHECK(config_.link_bandwidth_bps > 0.0);
  CESRM_CHECK(config_.link_delay > sim::SimTime::zero());
}

void Network::attach(NodeId node, Agent* agent) {
  CESRM_CHECK(node >= 0 && static_cast<std::size_t>(node) < agents_.size());
  CESRM_CHECK_MSG(agents_[static_cast<std::size_t>(node)] == nullptr,
                  "agent already attached at node " << node);
  CESRM_CHECK_MSG(tree_.is_root(node) || tree_.is_leaf(node),
                  "members attach only at the source or receivers");
  agents_[static_cast<std::size_t>(node)] = agent;
}

void Network::set_link_up(LinkId link, bool up) {
  CESRM_CHECK_MSG(link > 0 && static_cast<std::size_t>(link) < link_up_.size(),
                  "not a link (child endpoint): " << link);
  link_up_[static_cast<std::size_t>(link)] = up ? 1 : 0;
}

bool Network::link_up(LinkId link) const {
  CESRM_CHECK(link >= 0 && static_cast<std::size_t>(link) < link_up_.size());
  return link_up_[static_cast<std::size_t>(link)] != 0;
}

void Network::enable_sharding(sim::ShardedEngine* engine) {
  CESRM_CHECK(engine != nullptr);
  CESRM_CHECK_MSG(perturb_fn_ == nullptr,
                  "perturbation hook is not supported in sharded mode");
  CESRM_CHECK_MSG(engine->lookahead() <= config_.link_delay,
                  "engine lookahead exceeds the link delay");
  engine_ = engine;
  shard_stats_.assign(static_cast<std::size_t>(engine->shards()),
                      CrossingStats{});
  shard_ser_.assign(static_cast<std::size_t>(engine->shards()), {});
}

CrossingStats& CrossingStats::operator+=(const CrossingStats& other) {
  for (std::size_t i = 0; i < kPacketTypeCount; ++i) {
    multicast[i] += other.multicast[i];
    unicast[i] += other.unicast[i];
    subcast[i] += other.subcast[i];
    dropped[i] += other.dropped[i];
    duplicated[i] += other.duplicated[i];
    wire_bytes[i] += other.wire_bytes[i];
  }
  return *this;
}

CrossingStats Network::total_crossings() const {
  CrossingStats total = stats_;
  for (const CrossingStats& s : shard_stats_) total += s;
  return total;
}

sim::SimTime& Network::busy_until(NodeId from, NodeId to) {
  // The edge is identified by its child endpoint; direction 0 = downstream.
  if (tree_.parent(to) == from) return busy_[static_cast<std::size_t>(to)][0];
  CESRM_CHECK_MSG(tree_.parent(from) == to,
                  "not a tree edge: " << from << " -> " << to);
  return busy_[static_cast<std::size_t>(from)][1];
}

sim::SimTime Network::serialization_time(int size_bytes) {
  if (!config_.model_bandwidth || size_bytes <= 0) return sim::SimTime::zero();
  // A sweep sees only a handful of distinct sizes (payload and control),
  // so a tiny linear-scan memo beats recomputing the division + rounding
  // on every hop of every packet. Sharded runs memoize per shard — the
  // memo is mutable and each shard only ever consults its own.
  auto& cache = engine_ ? shard_ser_[static_cast<std::size_t>(
                              engine_->current_shard())]
                        : ser_cache_;
  for (const auto& [size, tx] : cache)
    if (size == size_bytes) return tx;
  const sim::SimTime tx = sim::SimTime::from_seconds(
      static_cast<double>(size_bytes) * 8.0 / config_.link_bandwidth_bps);
  cache.emplace_back(size_bytes, tx);
  return tx;
}

sim::SimTime Network::transmit(NodeId from, NodeId to, int size_bytes) {
  sim::SimTime& busy = busy_until(from, to);
  const sim::SimTime start = std::max(cur_sim().now(), busy);
  const sim::SimTime tx = serialization_time(size_bytes);
  busy = start + tx;
  return start + tx + config_.link_delay;
}

bool Network::crossing_lost(const Packet& pkt, NodeId from, NodeId to) {
  const auto type_idx = static_cast<std::size_t>(pkt.type);
  // Administrative link state: a down link loses the crossing outright,
  // in either direction.
  const LinkId link = tree_.parent(to) == from ? to : from;
  if (!link_up_[static_cast<std::size_t>(link)]) {
    ++cur_stats().dropped[type_idx];
    record_drop(cur_sim(), pkt, from, to);
    return true;
  }
  if (drop_fn_ && drop_fn_(pkt, from, to)) {
    ++cur_stats().dropped[type_idx];
    record_drop(cur_sim(), pkt, from, to);
    return true;
  }
  return false;
}

void Network::send_hop(NodeId from, NodeId to, const PacketRef& pkt,
                       Mode mode) {
  const auto type_idx = static_cast<std::size_t>(pkt->type);
  CrossingStats& stats = cur_stats();
  switch (mode) {
    case Mode::kMulticast: ++stats.multicast[type_idx]; break;
    case Mode::kUnicast: ++stats.unicast[type_idx]; break;
    case Mode::kSubcast: ++stats.subcast[type_idx]; break;
  }
  stats.wire_bytes[type_idx] += pkt->encoded_size();
  if (crossing_lost(*pkt, from, to)) return;
  sim::SimTime arrival = transmit(from, to, pkt->size_bytes);
  if (perturb_fn_) {
    const Perturbation p = perturb_fn_(*pkt, from, to);
    CESRM_CHECK(p.extra_delay >= sim::SimTime::zero());
    arrival += p.extra_delay;
    if (p.duplicate) {
      ++stats.duplicated[type_idx];
      const sim::SimTime dup_arrival = transmit(from, to, pkt->size_bytes);
      sim_.schedule_at(dup_arrival, [this, from, to, pkt, mode] {
        arrive(to, from, pkt, mode);
      });
    }
  }
  if (engine_) {
    engine_->schedule_from(from, to, arrival, [this, from, to, pkt, mode] {
      arrive(to, from, pkt, mode);
    });
  } else {
    sim_.schedule_at(arrival, [this, from, to, pkt, mode] {
      arrive(to, from, pkt, mode);
    });
  }
}

void Network::arrive(NodeId at, NodeId came_from, const PacketRef& pkt,
                     Mode mode) {
  switch (mode) {
    case Mode::kMulticast: {
      if (Agent* agent = agents_[static_cast<std::size_t>(at)]) {
        // Router assistance (§3.3): annotate replies with the turning-point
        // router for this recipient — the node at which the packet turned
        // from travelling "up" (toward the source) to "down". For a tree
        // path that is lca(sender, recipient).
        if (pkt->type == PacketType::kReply ||
            pkt->type == PacketType::kExpReply) {
          Packet annotated = *pkt;
          annotated.ann.turning_point = tree_.lca(pkt->sender, at);
          agent->on_packet(annotated);
        } else {
          agent->on_packet(*pkt);
        }
      }
      for (NodeId next : tree_.neighbors(at))
        if (next != came_from) send_hop(at, next, pkt, Mode::kMulticast);
      break;
    }
    case Mode::kUnicast: {
      if (at == pkt->dest) {
        if (Agent* agent = agents_[static_cast<std::size_t>(at)])
          agent->on_packet(*pkt);
        return;
      }
      const NodeId next = tree_.next_hop_toward(at, pkt->dest);
      CESRM_CHECK_MSG(next != kInvalidNode, "no route from " << at << " to "
                                                             << pkt->dest);
      send_hop(at, next, pkt, Mode::kUnicast);
      break;
    }
    case Mode::kSubcast: {
      if (Agent* agent = agents_[static_cast<std::size_t>(at)])
        agent->on_packet(*pkt);
      for (NodeId c : tree_.children(at)) send_hop(at, c, pkt, Mode::kSubcast);
      break;
    }
  }
}

void Network::multicast(NodeId from, const Packet& pkt) {
  CESRM_CHECK(from >= 0 && static_cast<std::size_t>(from) < agents_.size());
  // One materialization; every hop closure shares the handle.
  const auto ref = std::make_shared<const Packet>(pkt);
  for (NodeId next : tree_.neighbors(from))
    send_hop(from, next, ref, Mode::kMulticast);
}

void Network::unicast(NodeId from, const Packet& pkt) {
  CESRM_CHECK(pkt.dest != kInvalidNode);
  const auto ref = std::make_shared<const Packet>(pkt);
  if (from == pkt.dest) {
    // Degenerate self-send: deliver after zero hops at the next tick.
    // Always same-shard, so the sharded branch only differs in the tag.
    auto deliver = [this, from, ref] {
      if (Agent* agent = agents_[static_cast<std::size_t>(from)])
        agent->on_packet(*ref);
    };
    if (engine_)
      engine_->schedule_from(from, from, cur_sim().now(), std::move(deliver));
    else
      sim_.schedule_in(sim::SimTime::zero(), std::move(deliver));
    return;
  }
  send_hop(from, tree_.next_hop_toward(from, pkt.dest), ref, Mode::kUnicast);
}

void Network::leg_hop(NodeId cur, NodeId router, const PacketRef& pkt) {
  const NodeId next = tree_.next_hop_toward(cur, router);
  CESRM_CHECK(next != kInvalidNode);
  const auto type_idx = static_cast<std::size_t>(pkt->type);
  CrossingStats& stats = cur_stats();
  ++stats.unicast[type_idx];
  stats.wire_bytes[type_idx] += pkt->encoded_size();
  if (crossing_lost(*pkt, cur, next)) return;  // leg lost: no subcast
  const sim::SimTime arrival = transmit(cur, next, pkt->size_bytes);
  engine_->schedule_from(cur, next, arrival, [this, next, router, pkt] {
    if (next == router) {
      for (NodeId c : tree_.children(router))
        send_hop(router, c, pkt, Mode::kSubcast);
    } else {
      leg_hop(next, router, pkt);
    }
  });
}

void Network::unicast_subcast(NodeId from, NodeId router, const Packet& pkt) {
  CESRM_CHECK(router >= 0 &&
              static_cast<std::size_t>(router) < agents_.size());
  const auto ref = std::make_shared<const Packet>(pkt);
  if (from == router) {
    // Already at the turning point: subcast immediately.
    auto fanout = [this, router, ref] {
      for (NodeId c : tree_.children(router))
        send_hop(router, c, ref, Mode::kSubcast);
    };
    if (engine_)
      engine_->schedule_from(from, from, cur_sim().now(), std::move(fanout));
    else
      sim_.schedule_in(sim::SimTime::zero(), std::move(fanout));
    return;
  }
  if (engine_) {
    // Sharded: the synchronous leg walk below would mutate busy horizons
    // owned by other shards mid-window; chain the leg as real hop events
    // instead (same per-hop accounting, queueing applied at each hop's
    // actual local time).
    leg_hop(from, router, ref);
    return;
  }
  // Unicast leg to the router, then fan out downstream. When the leg
  // reaches `router`, arrive() would try to deliver to an agent (routers
  // have none) and stop — so instead we simulate the leg hop-by-hop here,
  // with the same per-hop accounting (stats, link state, loss decision,
  // queueing) as send_hop, and schedule the subcast at the leg's modelled
  // arrival time.
  Packet leg = pkt;
  leg.dest = router;
  NodeId cur = from;
  sim::SimTime when = sim_.now();
  while (cur != router) {
    const NodeId next = tree_.next_hop_toward(cur, router);
    CESRM_CHECK(next != kInvalidNode);
    ++stats_.unicast[static_cast<std::size_t>(leg.type)];
    stats_.wire_bytes[static_cast<std::size_t>(leg.type)] +=
        leg.encoded_size();
    if (crossing_lost(leg, cur, next)) return;  // leg lost: no subcast
    // Approximate queueing on the leg by advancing the busy horizon as of
    // `when` (the hop's local send time).
    sim::SimTime& busy = busy_until(cur, next);
    const sim::SimTime start = std::max(when, busy);
    const sim::SimTime tx = serialization_time(leg.size_bytes);
    busy = start + tx;
    when = start + tx + config_.link_delay;
    cur = next;
  }
  sim_.schedule_at(when, [this, router, ref] {
    for (NodeId c : tree_.children(router))
      send_hop(router, c, ref, Mode::kSubcast);
  });
}

sim::SimTime Network::path_delay(NodeId a, NodeId b) const {
  return config_.link_delay * static_cast<std::int64_t>(
                                  tree_.hop_distance(a, b));
}

}  // namespace cesrm::net
