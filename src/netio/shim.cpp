#include "netio/shim.hpp"

#include "util/check.hpp"

namespace cesrm::netio {

namespace {

/// SplitMix64 finalizer — the repo's standard stateless mixer (util::Rng
/// seeds through the same constants).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash chain over the keys.
double coin(std::initializer_list<std::uint64_t> keys) {
  std::uint64_t h = 0x8454CE52E1E0B0EFULL;
  for (std::uint64_t k : keys) h = mix(h ^ k);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

LossShim::LossShim(const net::MulticastTree& tree, ShimConfig config)
    : tree_(tree), config_(std::move(config)) {
  lossy_.assign(tree_.size(), config_.lossy_links.empty() ? 1 : 0);
  lossy_[static_cast<std::size_t>(tree_.root())] = 0;  // root is no link
  for (net::LinkId link : config_.lossy_links) {
    CESRM_CHECK_MSG(link >= 0 && static_cast<std::size_t>(link) < tree_.size() &&
                        link != tree_.root(),
                    "lossy link " << link << " is not a link of the tree "
                                  << "(valid: non-root child endpoints 0.."
                                  << tree_.size() - 1 << ")");
    lossy_[static_cast<std::size_t>(link)] = 1;
  }
}

LossShim::Verdict LossShim::crossing(const net::Packet& pkt,
                                     net::NodeId sender, net::NodeId receiver,
                                     sim::SimTime rx_time) const {
  Verdict v;
  const net::NodeId meet = tree_.lca(sender, receiver);
  const std::int64_t hops =
      tree_.depth(sender) + tree_.depth(receiver) - 2 * tree_.depth(meet);

  const bool is_data = pkt.type == net::PacketType::kData;
  const bool is_session = pkt.type == net::PacketType::kSession;
  const double rate = is_data ? config_.data_loss : config_.control_loss;
  const std::uint64_t salt =
      is_data ? 0
              : static_cast<std::uint64_t>(
                    rx_time.ns() / config_.control_salt_period.ns());
  // The link's coin, keyed by the link's child endpoint.
  const auto drops_on = [&](net::LinkId link) {
    return lossy(link) &&
           coin({config_.seed, is_data ? 1ULL : 2ULL,
                 static_cast<std::uint64_t>(link),
                 static_cast<std::uint64_t>(pkt.type),
                 static_cast<std::uint64_t>(pkt.source),
                 static_cast<std::uint64_t>(pkt.seq),
                 static_cast<std::uint64_t>(pkt.sender), salt}) < rate;
  };

  if (!is_session && rate > 0.0) {
    // The path crosses links sender → lca upstream, then lca → receiver
    // downstream, and the packet is lost on the first lossy link whose
    // coin drops it. The downstream leg is walked up over parent links;
    // each coin is a pure function of its link, so the topmost dropping
    // link there is the first one in path order.
    net::LinkId dropped_on = net::kInvalidNode;
    if (!is_data) {  // data flows down the tree
      for (net::NodeId u = sender; u != meet && dropped_on == net::kInvalidNode;
           u = tree_.parent(u))
        if (drops_on(u)) dropped_on = u;
    }
    if (dropped_on == net::kInvalidNode)
      for (net::NodeId d = receiver; d != meet; d = tree_.parent(d))
        if (drops_on(d)) dropped_on = d;
    if (dropped_on != net::kInvalidNode) {
      v.drop = true;
      v.dropped_on = dropped_on;
      return v;
    }
  }

  v.delay = config_.link_delay * hops;
  if (config_.jitter > sim::SimTime::zero()) {
    // Jitter is per-receiver (decorrelated), like the fault PerturbFn's.
    const double u = coin({config_.seed, 3ULL,
                           static_cast<std::uint64_t>(receiver),
                           static_cast<std::uint64_t>(pkt.type),
                           static_cast<std::uint64_t>(pkt.source),
                           static_cast<std::uint64_t>(pkt.seq),
                           static_cast<std::uint64_t>(pkt.sender), salt});
    v.delay += config_.jitter * u;
  }
  return v;
}

}  // namespace cesrm::netio
