#include "probes.hpp"

#include <memory>

#include "bench.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace perfbench {

namespace {

using cesrm::sim::SimTime;

/// Keeps the optimizer from discarding a probe's result.
volatile std::uint64_t g_sink = 0;

class NullAgent final : public cesrm::net::Agent {
 public:
  void on_packet(const cesrm::net::Packet&) override { ++received; }
  std::uint64_t received = 0;
};

}  // namespace

double probe_queue_op_ns(std::size_t depth, double cancel_share) {
  cesrm::sim::EventQueue q;
  std::uint64_t state = 0x51ED5EEDULL;
  const auto next_delay = [&state] {
    return SimTime::nanos(
        static_cast<std::int64_t>(cesrm::util::splitmix64(state) % 1'000'000));
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
    q.schedule(next_delay(), [] {});
  const auto cancel_every = cancel_share > 0
                                ? static_cast<std::uint64_t>(1.0 / cancel_share)
                                : 0;
  constexpr std::uint64_t kPops = 2'000'000;
  std::uint64_t ops = 0;
  const double t0 = now_s();
  SimTime when;
  cesrm::sim::EventQueue::Callback cb;
  cesrm::sim::EventId id{};
  for (std::uint64_t i = 0; i < kPops; ++i) {
    q.pop(when, cb, id);
    q.schedule(when + next_delay(), [] {});
    ops += 2;
    if (cancel_every != 0 && i % cancel_every == 0) {
      q.cancel(q.schedule(when + next_delay(), [] {}));
      ops += 2;
    }
  }
  const double dt = now_s() - t0;
  g_sink = g_sink + q.size();
  return 1e9 * dt / static_cast<double>(ops);
}

double probe_hop_ns(
    const std::vector<const cesrm::net::MulticastTree*>& trees) {
  constexpr cesrm::net::SeqNo kPackets = 2000;
  double wall = 0;
  std::uint64_t crossings = 0;
  for (const auto* tree : trees) {
    cesrm::sim::Simulator sim;
    cesrm::net::Network network(sim, *tree, cesrm::net::NetworkConfig{});
    std::vector<std::unique_ptr<NullAgent>> agents;
    for (cesrm::net::NodeId node = 0;
         node < static_cast<cesrm::net::NodeId>(tree->size()); ++node)
      if (tree->is_root(node) || tree->is_leaf(node)) {
        agents.push_back(std::make_unique<NullAgent>());
        network.attach(node, agents.back().get());
      }
    const double t0 = now_s();
    for (cesrm::net::SeqNo seq = 0; seq < kPackets; ++seq)
      network.multicast(tree->root(),
                        cesrm::net::make_data_packet(tree->root(), seq));
    sim.run();
    wall += now_s() - t0;
    crossings += network.total_crossings().total_of(
        cesrm::net::PacketType::kData);
  }
  return crossings ? 1e9 * wall / static_cast<double>(crossings) : 0.0;
}

double probe_shim_ns(const cesrm::net::MulticastTree& tree,
                     const cesrm::netio::ShimConfig& config) {
  const cesrm::netio::LossShim shim(tree, config);
  const auto& receivers = tree.receivers();
  constexpr cesrm::net::SeqNo kPackets = 200'000;
  std::uint64_t drops = 0;
  const double t0 = now_s();
  for (cesrm::net::SeqNo seq = 0; seq < kPackets; ++seq) {
    const auto pkt = cesrm::net::make_data_packet(tree.root(), seq);
    for (cesrm::net::NodeId r : receivers)
      drops += shim.crossing(pkt, tree.root(), r, SimTime::micros(50 * seq))
                   .drop;
  }
  const double dt = now_s() - t0;
  g_sink = g_sink + drops;
  return 1e9 * dt / static_cast<double>(kPackets * receivers.size());
}

WireCost probe_wire(
    const std::array<std::uint64_t, cesrm::net::kPacketTypeCount>& count) {
  using namespace cesrm::net;
  RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.01;
  ann.replier = 2;
  ann.dist_replier_requestor = 0.01;
  auto session = std::make_shared<SessionPayload>();
  session->stamp = SimTime::millis(1);
  session->streams.push_back({0, 1000});
  session->echoes.push_back({2, SimTime::millis(1), SimTime::micros(10)});
  const Packet samples[kPacketTypeCount] = {
      make_data_packet(0, 1000),
      make_session_packet(3, 0, session),
      make_request_packet(3, 0, 1000, 0.01),
      make_reply_packet(2, 0, 1000, ann),
      make_exp_request_packet(3, 2, 0, 1000, ann),
      make_exp_reply_packet(2, 0, 1000, ann),
  };
  std::uint64_t total = 0;
  for (auto c : count) total += c;
  if (total == 0) return {};
  // Scale the mix to about 10^6 frames, keeping every type that occurred.
  constexpr double kFrames = 1e6;
  std::vector<std::uint8_t> buf;
  Packet decoded;
  double enc_s = 0, dec_s = 0;
  std::uint64_t frames = 0;
  for (std::size_t t = 0; t < kPacketTypeCount; ++t) {
    if (count[t] == 0) continue;
    const auto n = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(kFrames * static_cast<double>(count[t]) /
                                      static_cast<double>(total)));
    double t0 = now_s();
    for (std::uint64_t i = 0; i < n; ++i) {
      buf.clear();
      cesrm::wire::encode_packet(samples[t], &buf);
    }
    enc_s += now_s() - t0;
    t0 = now_s();
    for (std::uint64_t i = 0; i < n; ++i)
      g_sink = g_sink + !cesrm::wire::decode_packet_exact(buf, &decoded);
    dec_s += now_s() - t0;
    frames += n;
  }
  const double f = static_cast<double>(frames);
  return {1e9 * enc_s / f, 1e9 * dec_s / f};
}

}  // namespace perfbench
