// test_netio.cpp — the real-network transport backend (src/netio).
//
// Everything here runs against genuine UDP sockets on the loopback
// interface: unit coverage for the clock seam, the address/socket layer
// and the seeded loss shim, corpus replay of the wire regression frames
// through a live socket (verdicts must be byte-identical to the in-memory
// decoder's), and whole-group loopback integration runs whose outcome
// feeds the same InvariantOracle the simulated pipeline uses. Each test
// that opens the shared multicast port uses its own port number so suites
// never collide across concurrent ctest workers.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "net/topology_builder.hpp"
#include "netio/clock.hpp"
#include "netio/reactor.hpp"
#include "netio/run.hpp"
#include "netio/shim.hpp"
#include "netio/socket.hpp"
#include "netio/transport.hpp"
#include "srm/srm_agent.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

#if defined(__linux__)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace cesrm::netio {
namespace {

using sim::SimTime;

// ------------------------------------------------------------- clock ----

TEST(NetioClock, MonotonicClockAdvances) {
  MonotonicClock clock;
  const SimTime a = clock.now();
  const SimTime b = clock.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, SimTime::zero());
}

TEST(NetioClock, SharedEpochAlignsClocks) {
  const std::uint64_t epoch = MonotonicClock::raw_ns();
  MonotonicClock a(epoch);
  MonotonicClock b(epoch);
  // Same epoch → the two clocks read the same timeline (within the time
  // it takes to query them twice).
  EXPECT_LT((b.now() - a.now()).ns(), 1000000000LL);
}

TEST(NetioClock, FakeClockDrivesReactorDeterministically) {
  FakeClock clock;
  Reactor reactor(clock);
  int fired = 0;
  reactor.sim().schedule_at(SimTime::millis(10), [&fired] { fired = 1; });
  reactor.sim().schedule_at(SimTime::millis(30), [&fired] { fired = 2; });

  reactor.poll_once();
  EXPECT_EQ(fired, 0);  // fake time still at zero

  clock.advance(SimTime::millis(10));
  reactor.poll_once();
  EXPECT_EQ(fired, 1);

  clock.advance(SimTime::millis(9));  // 19 ms: second event not yet due
  reactor.poll_once();
  EXPECT_EQ(fired, 1);

  clock.advance(SimTime::millis(20));
  reactor.poll_once();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(reactor.sim().events_executed(), 2u);
}

// ----------------------------------------------------------- sockets ----

TEST(NetioSocket, ParseIpv4RoundTrips) {
  EXPECT_EQ(parse_ipv4("127.0.0.1"), kLoopbackAddr);
  EXPECT_EQ(parse_ipv4("239.192.58.1"), kDefaultMcastGroup);
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_FALSE(parse_ipv4("").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.256").has_value());
  EXPECT_FALSE(parse_ipv4("1.2..4").has_value());
  EXPECT_FALSE(parse_ipv4("a.b.c.d").has_value());
  EXPECT_EQ(endpoint_to_string(Endpoint{kLoopbackAddr, 47001}),
            "127.0.0.1:47001");
}

TEST(NetioSocket, MulticastAddrPredicate) {
  EXPECT_TRUE(is_multicast_addr(kDefaultMcastGroup));
  EXPECT_TRUE(is_multicast_addr(*parse_ipv4("224.0.0.1")));
  EXPECT_TRUE(is_multicast_addr(*parse_ipv4("239.255.255.255")));
  EXPECT_FALSE(is_multicast_addr(kLoopbackAddr));
  EXPECT_FALSE(is_multicast_addr(*parse_ipv4("223.255.255.255")));
  EXPECT_FALSE(is_multicast_addr(*parse_ipv4("240.0.0.0")));
}

TEST(NetioSocket, EphemeralBindReportsRealPort) {
  UdpSocket sock;
  sock.bind(Endpoint{kLoopbackAddr, 0});
  const Endpoint ep = sock.local_endpoint();
  EXPECT_EQ(ep.addr, kLoopbackAddr);
  EXPECT_NE(ep.port, 0);
}

TEST(NetioSocket, LoopbackDatagramRoundTrips) {
  UdpSocket rx;
  rx.bind(Endpoint{kLoopbackAddr, 0});
  UdpSocket tx;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(tx.send_to(rx.local_endpoint(), payload));
  std::vector<std::uint8_t> buf(64);
  Endpoint from{};
  std::optional<std::size_t> n;
  for (int i = 0; i < 200 && !n; ++i) {
    n = rx.recv_from(buf, &from);
    if (!n) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, payload.size());
  buf.resize(*n);
  EXPECT_EQ(buf, payload);
}

#if defined(__linux__)
TEST(NetioSocket, PortInUseErrorNamesTheFlag) {
  // A plain socket WITHOUT SO_REUSEADDR holds the port, so the wrapper's
  // (reuse-enabled) bind genuinely collides.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = 0;
  ASSERT_EQ(::bind(raw, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  socklen_t len = sizeof sa;
  ASSERT_EQ(::getsockname(raw, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  const std::uint16_t port = ntohs(sa.sin_port);

  UdpSocket sock;
  try {
    sock.bind(Endpoint{kLoopbackAddr, port}, "--mcast-port");
    FAIL() << "bind to an occupied port should throw";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("port in use"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--mcast-port"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid:"), std::string::npos) << msg;
  }
  ::close(raw);
}
#endif

TEST(NetioSocket, JoinRejectsNonMulticastAddress) {
  UdpSocket sock;
  try {
    sock.join_group(kLoopbackAddr, kLoopbackAddr);
    FAIL() << "joining a unicast address should throw";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("not an IPv4 multicast address"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("224.0.0.0-239.255.255.255"), std::string::npos)
        << msg;
  }
}

// -------------------------------------------------------------- shim ----

net::Packet data_packet(net::NodeId source, net::SeqNo seq) {
  net::Packet p = net::make_data_packet(source, seq);
  return p;
}

TEST(NetioShim, DataVerdictsAreDeterministicAndSubtreeCorrelated) {
  const net::MulticastTree tree = net::parse_tree("0(1(3 4) 2(5 6))");
  ShimConfig cfg;
  cfg.seed = 42;
  cfg.data_loss = 0.5;
  cfg.lossy_links = {1};  // only the link above receivers 3 and 4
  const LossShim shim(tree, cfg);
  const LossShim again(tree, cfg);

  int drops = 0;
  const int kPackets = 2000;
  for (net::SeqNo seq = 0; seq < kPackets; ++seq) {
    const net::Packet pkt = data_packet(0, seq);
    const auto v3 = shim.crossing(pkt, 0, 3, SimTime::zero());
    const auto v4 = shim.crossing(pkt, 0, 4, SimTime::seconds(9));
    const auto v5 = shim.crossing(pkt, 0, 5, SimTime::zero());
    // Receivers 3 and 4 share lossy link 1: identical verdicts, at any
    // arrival time (DATA coins are time-independent).
    EXPECT_EQ(v3.drop, v4.drop) << "seq " << seq;
    if (v3.drop) {
      EXPECT_EQ(v3.dropped_on, 1);
    }
    // Link 2's subtree is loss-free.
    EXPECT_FALSE(v5.drop);
    // Stateless: a second shim with the same config agrees exactly.
    EXPECT_EQ(again.crossing(pkt, 0, 3, SimTime::zero()).drop, v3.drop);
    drops += v3.drop ? 1 : 0;
  }
  EXPECT_GT(drops, kPackets * 2 / 5);
  EXPECT_LT(drops, kPackets * 3 / 5);
}

TEST(NetioShim, SessionNeverDroppedAndDataNeverDropsUpstream) {
  const net::MulticastTree tree = net::parse_tree("0(1(3 4) 2)");
  ShimConfig cfg;
  cfg.seed = 7;
  cfg.data_loss = 1.0 - 1e-9;  // effectively always
  cfg.control_loss = 1.0 - 1e-9;
  const LossShim shim(tree, cfg);
  for (net::SeqNo seq = 0; seq < 64; ++seq) {
    const net::Packet session = net::make_session_packet(
        3, 0, std::make_shared<net::SessionPayload>());
    EXPECT_FALSE(shim.crossing(session, 3, 4, SimTime::zero()).drop);
    // DATA travelling up the tree (receiver → source direction) is never
    // charged: data flows down, only downstream crossings flip coins.
    EXPECT_FALSE(shim.crossing(data_packet(3, seq), 3, 0, SimTime::zero())
                     .drop);
    // ... while the downstream direction drops at the configured ~1.0.
    EXPECT_TRUE(shim.crossing(data_packet(0, seq), 0, 3, SimTime::zero())
                    .drop);
  }
}

TEST(NetioShim, ControlRetriesDrawFreshCoinsAcrossTimeBuckets) {
  const net::MulticastTree tree = net::parse_tree("0(1(3 4) 2)");
  ShimConfig cfg;
  cfg.seed = 11;
  cfg.control_loss = 0.5;
  cfg.control_salt_period = SimTime::millis(100);
  const LossShim shim(tree, cfg);
  const net::Packet req = net::make_request_packet(3, 0, 5, 0.01);
  // The identical retransmitted frame must not be doomed forever: across
  // arrival-time buckets the verdict changes (a stateless function of the
  // bucket, but fresh per bucket).
  bool dropped = false, passed = false;
  for (int bucket = 0; bucket < 64; ++bucket) {
    const auto v =
        shim.crossing(req, 3, 4, SimTime::millis(100 * bucket + 50));
    (v.drop ? dropped : passed) = true;
  }
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(passed);
  // Within one bucket the verdict is stable (receivers stay correlated).
  const auto a = shim.crossing(req, 3, 4, SimTime::millis(50));
  const auto b = shim.crossing(req, 3, 4, SimTime::millis(99));
  EXPECT_EQ(a.drop, b.drop);
}

TEST(NetioShim, DelayIsPathHopsTimesLinkDelayPlusBoundedJitter) {
  const net::MulticastTree tree = net::parse_tree("0(1(3 4) 2)");
  ShimConfig cfg;
  cfg.link_delay = SimTime::millis(5);
  const LossShim no_jitter(tree, cfg);
  // 0 → 3 crosses links 1 and 3: two hops.
  EXPECT_EQ(no_jitter.crossing(data_packet(0, 0), 0, 3, SimTime::zero())
                .delay,
            SimTime::millis(10));
  // 3 → 4: up to router 1, down to 4: two hops.
  EXPECT_EQ(no_jitter
                .crossing(net::make_request_packet(3, 0, 1, 0.01), 3, 4,
                          SimTime::zero())
                .delay,
            SimTime::millis(10));

  cfg.jitter = SimTime::millis(2);
  const LossShim jittered(tree, cfg);
  for (net::SeqNo seq = 0; seq < 200; ++seq) {
    const auto v = jittered.crossing(data_packet(0, seq), 0, 3,
                                     SimTime::zero());
    EXPECT_GE(v.delay, SimTime::millis(10));
    EXPECT_LE(v.delay, SimTime::millis(12));
  }
}

TEST(NetioShim, RejectsNonLinksAsLossy) {
  const net::MulticastTree tree = net::parse_tree("0(1 2)");
  ShimConfig cfg;
  cfg.lossy_links = {0};  // the root is not a link
  EXPECT_THROW(LossShim(tree, cfg), util::CheckError);
  cfg.lossy_links = {9};
  EXPECT_THROW(LossShim(tree, cfg), util::CheckError);
}

/// The verdict rebuilt hop by hop from tree.path(): a packet is lost on
/// the first hop, in path order, that crosses a link whose coin drops it
/// (DATA only on downstream hops), and otherwise arrives after hops ×
/// link_delay plus the receiver's jitter (what a zero-hop crossing adds).
/// A link's coin does not depend on the direction of the crossing, so
/// each hop reads it from the one-hop downstream crossing of its link.
LossShim::Verdict path_reference(const LossShim& shim,
                                 const net::MulticastTree& tree,
                                 const net::Packet& pkt, net::NodeId sender,
                                 net::NodeId receiver, SimTime at,
                                 int* dropping_hops) {
  const std::vector<net::NodeId> path = tree.path(sender, receiver);
  LossShim::Verdict first;
  *dropping_hops = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const bool downstream = tree.parent(path[i + 1]) == path[i];
    const net::LinkId link = downstream ? path[i + 1] : path[i];
    if (pkt.type == net::PacketType::kData && !downstream) continue;
    const LossShim::Verdict hop =
        shim.crossing(pkt, tree.parent(link), link, at);
    if (hop.drop && (*dropping_hops)++ == 0) first = hop;
  }
  if (first.drop) return first;
  first.delay = shim.config().link_delay *
                    static_cast<std::int64_t>(path.size() - 1) +
                shim.crossing(pkt, receiver, receiver, at).delay;
  return first;
}

/// A chain 0 → 1 → … → depth, with a side leaf every 16 levels.
std::string chain_text(int depth) {
  std::string text;
  int side_leaf = depth + 1;
  for (int v = 0; v < depth; ++v) {
    text += std::to_string(v) + "(";
    if (v % 16 == 8) text += std::to_string(side_leaf++) + " ";
  }
  return text + std::to_string(depth) + std::string(depth, ')');
}

TEST(NetioShim, VerdictsMatchTheTreePathReference) {
  int verdicts = 0, first_of_several = 0;
  for (const std::string& text :
       {std::string("0(1(3 4) 2(5 6))"),
        std::string("0(1(2(3 4(5 6)) 7) 8(9 10(11)))"), chain_text(70)}) {
    SCOPED_TRACE(text.substr(0, 40));
    const net::MulticastTree tree = net::parse_tree(text);
    ShimConfig cfg;
    cfg.seed = 23;
    cfg.data_loss = 0.2;
    cfg.control_loss = 0.2;
    cfg.jitter = SimTime::millis(3);
    cfg.control_salt_period = SimTime::millis(10);
    for (const bool every_link : {true, false}) {
      cfg.lossy_links.clear();
      if (!every_link)  // every third link
        for (net::NodeId v = 1; static_cast<std::size_t>(v) < tree.size();
             v += 3)
          cfg.lossy_links.push_back(v);
      const LossShim shim(tree, cfg);
      const auto session = std::make_shared<net::SessionPayload>();
      const auto n = static_cast<net::NodeId>(tree.size());
      for (net::NodeId s = 0; s < n; ++s)
        for (net::NodeId r = 0; r < n; ++r)
          for (net::SeqNo seq = 0; seq < 2; ++seq) {
            net::RecoveryAnnotation ann;
            ann.requestor = r;
            ann.replier = s;
            const SimTime at = SimTime::millis(7 * seq + s);
            for (const net::Packet& pkt :
                 {net::make_data_packet(s, seq),
                  net::make_request_packet(s, 0, seq, 0.01),
                  net::make_reply_packet(s, 0, seq, ann),
                  net::make_session_packet(s, 0, session)}) {
              int dropping_hops = 0;
              const LossShim::Verdict want =
                  path_reference(shim, tree, pkt, s, r, at, &dropping_hops);
              const LossShim::Verdict got = shim.crossing(pkt, s, r, at);
              ASSERT_EQ(got.drop, want.drop) << s << " -> " << r;
              ASSERT_EQ(got.dropped_on, want.dropped_on) << s << " -> " << r;
              ASSERT_EQ(got.delay, want.delay) << s << " -> " << r;
              ++verdicts;
              first_of_several += dropping_hops > 1 ? 1 : 0;
            }
          }
    }
  }
  // The order matters on many paths: several hops would drop the packet,
  // and the verdict must name the first.
  EXPECT_GT(first_of_several, verdicts / 20);
}

// --------------------------------------- wire corpus over the socket ----

std::vector<std::uint8_t> parse_hex_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::uint8_t> out;
  std::string line;
  int hi = -1;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    for (char c : line) {
      int v;
      if (c >= '0' && c <= '9') v = c - '0';
      else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
      else continue;
      if (hi < 0) {
        hi = v;
      } else {
        out.push_back(static_cast<std::uint8_t>((hi << 4) | v));
        hi = -1;
      }
    }
  }
  EXPECT_EQ(hi, -1) << "odd hex digit count in " << path;
  return out;
}

/// One live member on real sockets, driven deterministically enough for
/// corpus replay: datagrams are pushed at its unicast endpoint from a
/// plain socket and the reactor is polled until they surface. The tree
/// holds every node id the corpus frames name (up to the ok-session
/// frame's stream advert from 7), with this member at leaf 1. A test that
/// needs routers passes its own tree, member and protocol.
struct LiveMember {
  net::MulticastTree tree;
  AddressPlan plan;
  ShimConfig shim_cfg;
  std::unique_ptr<LossShim> shim;
  MonotonicClock clock;
  Reactor reactor{clock};
  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<srm::SrmAgent> agent;

  explicit LiveMember(std::uint16_t mcast_port,
                      const char* tree_text = "0(1 2 3 4 5 6 7)",
                      net::NodeId self = 1, bool cesrm = false)
      : tree(net::parse_tree(tree_text)) {
    plan.mcast_port = mcast_port;
    plan.unicast.assign(tree.size(), Endpoint{});
    // Must be nonzero: agents derive request-timer delays from path_delay,
    // and a zero distance would re-arm them at +0 forever.
    shim_cfg.link_delay = SimTime::millis(1);
    shim = std::make_unique<LossShim>(tree, shim_cfg);
    transport =
        std::make_unique<SocketTransport>(reactor, tree, plan, *shim, self);
    for (net::NodeId leaf : tree.receivers())  // every member loops to self
      plan.unicast[static_cast<std::size_t>(leaf)] =
          transport->unicast_endpoint();
    if (cesrm)
      agent = std::make_unique<::cesrm::cesrm::CesrmAgent>(
          reactor.sim(), *transport, self, 0, ::cesrm::cesrm::CesrmConfig{},
          util::Rng(1));
    else
      agent = std::make_unique<srm::SrmAgent>(
          reactor.sim(), *transport, self, 0, srm::SrmConfig{}, util::Rng(1));
  }

  /// Sends `bytes` to the member's unicast socket and polls until the
  /// transport has seen it (or a generous timeout trips).
  void deliver(const std::vector<std::uint8_t>& bytes, UdpSocket& tx) {
    deliver_to(transport->unicast_endpoint(), bytes, tx);
  }

  /// The same through the group, to the member's group socket; `tx` must
  /// have loopback multicast egress (group_sender()).
  void deliver_to_group(const std::vector<std::uint8_t>& bytes,
                        UdpSocket& tx) {
    deliver_to(Endpoint{plan.mcast_addr, plan.mcast_port}, bytes, tx);
  }

  void deliver_to(const Endpoint& to, const std::vector<std::uint8_t>& bytes,
                  UdpSocket& tx) {
    const std::uint64_t before = transport->stats().datagrams_received;
    ASSERT_TRUE(tx.send_to(to, bytes));
    for (int i = 0; i < 2000; ++i) {
      reactor.poll_once(SimTime::millis(5));
      if (transport->stats().datagrams_received > before) return;
    }
    FAIL() << "datagram never arrived at " << endpoint_to_string(to);
  }
};

/// A plain socket whose datagrams to the group loop back on this host.
UdpSocket group_sender() {
  UdpSocket tx;
  tx.set_multicast_egress(kLoopbackAddr, /*loop=*/true);
  return tx;
}

TEST(NetioWireCorpus, SocketReplayMatchesInMemoryVerdicts) {
  const std::filesystem::path dir = CESRM_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".hex") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "empty corpus at " << dir;

  LiveMember member(47561);
  UdpSocket tx;
  std::size_t ok_frames = 0, bad_frames = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::vector<std::uint8_t> bytes = parse_hex_file(path);

    // In-memory verdict: the reference the socket path must reproduce.
    net::Packet reference;
    const auto want_err = wire::decode_packet_exact(bytes, &reference);

    const auto& stats = member.agent->stats();
    const std::uint64_t decoded_before = stats.wire_packets_decoded;
    const auto errors_before = stats.wire_decode_errors;
    const std::uint64_t verdicts_before =
        decoded_before + stats.wire_decode_errors_total();
    member.deliver(bytes, tx);
    if (::testing::Test::HasFatalFailure()) return;
    // Malformed frames are counted synchronously at ingress; accepted ones
    // surface after the shim's path delay — poll until the verdict lands.
    for (int i = 0; i < 2000 && stats.wire_packets_decoded +
                                        stats.wire_decode_errors_total() ==
                                    verdicts_before;
         ++i)
      member.reactor.poll_once(SimTime::millis(5));
    ASSERT_GT(stats.wire_packets_decoded + stats.wire_decode_errors_total(),
              verdicts_before)
        << "no decode verdict surfaced for the delivered datagram";

    if (!want_err) {
      ++ok_frames;
      EXPECT_EQ(stats.wire_packets_decoded, decoded_before + 1)
          << "socket path rejected a frame the in-memory decoder accepts";
      EXPECT_EQ(stats.wire_decode_errors, errors_before);
    } else {
      ++bad_frames;
      EXPECT_EQ(stats.wire_packets_decoded, decoded_before)
          << "socket path accepted a frame the in-memory decoder rejects";
      auto want_errors = errors_before;
      ++want_errors[static_cast<std::size_t>(want_err->kind)];
      EXPECT_EQ(stats.wire_decode_errors, want_errors)
          << "socket path rejected with a different taxonomy kind than "
          << wire::decode_error_name(want_err->kind);
    }
  }
  EXPECT_GE(ok_frames, 6u);
  EXPECT_GE(bad_frames, 6u);
  EXPECT_EQ(member.transport->stats().out_of_tree, 0u);
}

TEST(NetioWireCorpus, FramesNamingOutOfTreeNodesNeverReachTheAgent) {
  LiveMember member(47564);
  UdpSocket tx;
  const auto& stats = member.agent->stats();
  net::RecoveryAnnotation ann;
  ann.requestor = 2;
  ann.dist_requestor_source = 0.01;
  ann.replier = 99;  // no such node: would index past the tree tables
  ann.dist_replier_requestor = 0.01;
  member.deliver(wire::encode_packet(net::make_reply_packet(99, 0, 3, ann)),
                 tx);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(member.transport->stats().out_of_tree, 1u);
  // Give a wrongly scheduled delivery time to surface: none may.
  for (int i = 0; i < 10; ++i) member.reactor.poll_once(SimTime::millis(5));
  EXPECT_EQ(stats.wire_packets_decoded, 0u);
  EXPECT_EQ(stats.wire_decode_errors_total(), 0u);
  EXPECT_EQ(member.transport->stats().delivered, 0u);

  // The member keeps running: a well-formed in-tree reply still lands.
  ann.replier = 5;
  member.deliver(wire::encode_packet(net::make_reply_packet(5, 0, 3, ann)),
                 tx);
  if (::testing::Test::HasFatalFailure()) return;
  for (int i = 0; i < 2000 && stats.wire_packets_decoded == 0; ++i)
    member.reactor.poll_once(SimTime::millis(5));
  EXPECT_EQ(stats.wire_packets_decoded, 1u);
  EXPECT_EQ(member.transport->stats().out_of_tree, 1u);
}

TEST(NetioWireCorpus, RepliesNamingARouterAsReplierNeverReachTheCache) {
  // Router 1 is in the tree, so the frame passes the out-of-tree filter.
  // The agent must still refuse to cache it: the next loss would send an
  // expedited request to router 1, which has no unicast endpoint, and
  // SocketTransport::unicast would fail its CHECK inside the reactor.
  LiveMember member(47565, "0(1(2 3) 4)", /*self=*/2, /*cesrm=*/true);
  auto& agent = static_cast<::cesrm::cesrm::CesrmAgent&>(*member.agent);
  UdpSocket tx;
  const auto push = [&](const net::Packet& pkt) {
    const std::uint64_t decoded = agent.stats().wire_packets_decoded + 1;
    member.deliver(wire::encode_packet(pkt), tx);
    for (int i = 0; i < 2000 && agent.stats().wire_packets_decoded < decoded;
         ++i)
      member.reactor.poll_once(SimTime::millis(5));
    ASSERT_EQ(agent.stats().wire_packets_decoded, decoded);
  };
  push(net::make_data_packet(0, 1));  // reveals the loss of 0
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(agent.outstanding_losses(), 1u);
  net::RecoveryAnnotation ann;
  ann.requestor = 2;
  ann.dist_requestor_source = 0.002;
  ann.replier = 1;
  ann.dist_replier_requestor = 0.001;
  push(net::make_reply_packet(1, 0, 0, ann));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_TRUE(agent.has_packet(0));
  EXPECT_TRUE(agent.cache().empty());

  // A later loss runs to completion: no expedited request goes out, and a
  // member's reply repairs it.
  push(net::make_data_packet(0, 3));  // reveals the loss of 2
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(agent.outstanding_losses(), 1u);
  for (int i = 0; i < 10; ++i) member.reactor.poll_once(SimTime::millis(5));
  ann.replier = 4;
  push(net::make_reply_packet(4, 0, 2, ann));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(agent.outstanding_losses(), 0u);
  EXPECT_EQ(agent.stats().exp_requests_sent, 0u);
  EXPECT_EQ(agent.cache().most_recent()->replier, 4);
}

TEST(NetioWireCorpus, MisaddressedExpRequestLeavesTheMemberRunning) {
  // A well-formed EXP-REQUEST naming member 3 as its destination, pushed
  // at member 2's unicast socket: the agent drops and counts it and keeps
  // running (a throw here would stop every reactor of a live group).
  LiveMember member(47571, "0(1(2 3) 4)", /*self=*/2, /*cesrm=*/true);
  srm::SrmAgent& agent = *member.agent;
  UdpSocket tx;
  const auto push = [&](const net::Packet& pkt) {
    const std::uint64_t decoded = agent.stats().wire_packets_decoded + 1;
    member.deliver(wire::encode_packet(pkt), tx);
    for (int i = 0; i < 2000 && agent.stats().wire_packets_decoded < decoded;
         ++i)
      member.reactor.poll_once(SimTime::millis(5));
    ASSERT_EQ(agent.stats().wire_packets_decoded, decoded);
  };
  push(net::make_data_packet(0, 0));
  if (::testing::Test::HasFatalFailure()) return;
  net::RecoveryAnnotation ann;
  ann.requestor = 4;
  ann.replier = 3;
  ann.turning_point = 0;
  push(net::make_exp_request_packet(4, /*dest=*/3, 0, 0, ann));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(agent.stats().exp_requests_misaddressed, 1u);
  EXPECT_EQ(agent.stats().exp_replies_sent, 0u);
  // The member runs on: the next DATA frame is received.
  push(net::make_data_packet(0, 1));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_TRUE(agent.has_packet(1));
  EXPECT_EQ(agent.outstanding_losses(), 0u);
}

TEST(NetioWireCorpus, SeqsBeyondTheWindowAreDroppedAndCounted) {
  LiveMember member(47566);
  srm::SrmAgent& agent = *member.agent;
  UdpSocket tx;
  const auto push = [&](const net::Packet& pkt) {
    const std::uint64_t decoded = agent.stats().wire_packets_decoded + 1;
    member.deliver(wire::encode_packet(pkt), tx);
    for (int i = 0; i < 2000 && agent.stats().wire_packets_decoded < decoded;
         ++i)
      member.reactor.poll_once(SimTime::millis(5));
    ASSERT_EQ(agent.stats().wire_packets_decoded, decoded);
  };
  const auto advert = [](net::SeqNo highest) {
    auto payload = std::make_shared<net::SessionPayload>();
    payload->streams.push_back({0, highest});
    return net::make_session_packet(0, 0, std::move(payload));
  };
  push(net::make_data_packet(0, 0));
  if (::testing::Test::HasFatalFailure()) return;

  // Held: seq 0. Each frame crosses the socket and decodes, then ingress
  // drops it before it touches the stream.
  const net::SeqNo far = 0 + srm::kSeqWindow + 1000;
  for (const net::Packet& pkt :
       {net::make_data_packet(0, far),
        net::make_request_packet(2, 0, far, 0.002), advert(far)}) {
    push(pkt);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(agent.stats().seq_beyond_window, 3u);
  EXPECT_EQ(agent.highest_seq(), 0);
  EXPECT_EQ(agent.stats().losses_detected, 0u);
  EXPECT_EQ(agent.stats().requests_received, 0u);

  // A frame at the codec's largest seq is dropped the same way, and the
  // member keeps running: the next gap is detected as usual.
  push(net::make_data_packet(0, wire::kMaxSeqNo));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(agent.stats().seq_beyond_window, 4u);
  push(net::make_data_packet(0, 2));
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(agent.stats().losses_detected, 1u);
  EXPECT_EQ(agent.outstanding_losses(), 1u);
}

TEST(NetioWireCorpus, GroupSocketReplayMatchesInMemoryVerdicts) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(CESRM_CORPUS_DIR))
    if (entry.path().extension() == ".hex") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  LiveMember member(47567);
  UdpSocket tx = group_sender();
  const auto& stats = member.agent->stats();
  std::size_t ok_frames = 0, bad_frames = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::vector<std::uint8_t> bytes = parse_hex_file(path);
    // No corpus frame names the member as its sender, so none is
    // self-filtered: every one reaches a verdict.
    ASSERT_NE(wire::peek_sender(bytes), member.transport->self());
    net::Packet reference;
    const auto want_err = wire::decode_packet_exact(bytes, &reference);

    const std::uint64_t decoded_before = stats.wire_packets_decoded;
    auto want_errors = stats.wire_decode_errors;
    const auto verdicts = [&stats] {
      return stats.wire_packets_decoded + stats.wire_decode_errors_total();
    };
    const std::uint64_t verdicts_before = verdicts();
    member.deliver_to_group(bytes, tx);
    if (::testing::Test::HasFatalFailure()) return;
    // Accepted frames surface after the shim's path delay.
    for (int i = 0; i < 2000 && verdicts() == verdicts_before; ++i)
      member.reactor.poll_once(SimTime::millis(5));

    if (!want_err) {
      ++ok_frames;
      EXPECT_EQ(stats.wire_packets_decoded, decoded_before + 1);
    } else {
      ++bad_frames;
      EXPECT_EQ(stats.wire_packets_decoded, decoded_before);
      ++want_errors[static_cast<std::size_t>(want_err->kind)];
    }
    EXPECT_EQ(stats.wire_decode_errors, want_errors)
        << "the in-memory decoder's kind: "
        << (want_err ? wire::decode_error_name(want_err->kind) : "none");
  }
  EXPECT_GE(ok_frames, 6u);
  EXPECT_GE(bad_frames, 6u);
  EXPECT_EQ(member.transport->stats().decode_failed, bad_frames);
  EXPECT_EQ(member.transport->stats().out_of_tree, 0u);
}

TEST(NetioGroupIngress, OwnMulticastIsFilteredBeforeDecoding) {
  LiveMember member(47568);
  const net::NodeId self = member.transport->self();
  const SocketStats& stats = member.transport->stats();
  net::RecoveryAnnotation ann;
  ann.requestor = 2;
  ann.dist_requestor_source = 0.01;
  ann.replier = self;
  ann.dist_replier_requestor = 0.01;
  const std::vector<net::Packet> own = {
      net::make_request_packet(self, 0, 3, 0.01),
      net::make_reply_packet(self, 0, 3, ann),
      net::make_session_packet(self, 0,
                               std::make_shared<net::SessionPayload>())};
  for (const net::Packet& pkt : own) {
    const std::uint64_t before = stats.datagrams_received;
    member.transport->multicast(self, pkt);  // loops back to the group socket
    for (int i = 0; i < 2000 && stats.datagrams_received == before; ++i)
      member.reactor.poll_once(SimTime::millis(5));
    ASSERT_EQ(stats.datagrams_received, before + 1);
  }
  // Give a wrongly scheduled delivery time to surface: none may.
  for (int i = 0; i < 10; ++i) member.reactor.poll_once(SimTime::millis(5));
  EXPECT_EQ(stats.self_filtered, own.size());
  EXPECT_EQ(stats.decode_failed, 0u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(member.agent->stats().wire_packets_decoded, 0u);
  EXPECT_EQ(member.agent->stats().wire_decode_errors_total(), 0u);
}

TEST(NetioGroupIngress, DatagramsFailingThePeekAreDecodedAndCountedByKind) {
  LiveMember member(47569);
  UdpSocket tx = group_sender();
  const net::NodeId self = member.transport->self();
  const SocketStats& stats = member.transport->stats();
  const auto& errors = member.agent->stats().wire_decode_errors;
  // Each names this member as its sender; only the peek's header checks
  // tell it from the member's own multicast.
  const std::vector<std::uint8_t> own =
      wire::encode_packet(net::make_request_packet(self, 0, 3, 0.01));
  ASSERT_EQ(wire::peek_sender(own), self);
  using Kind = wire::DecodeErrorKind;
  struct Case {
    const char* what;
    std::vector<std::uint8_t> bytes;
    Kind kind;
  };
  std::vector<Case> cases = {
      {"shorter than the header",
       {own.begin(), own.begin() + wire::kHeaderSize - 1}, Kind::kTruncated},
      {"bad magic", own, Kind::kBadMagic},
      {"bad version", own, Kind::kBadVersion},
      {"frame_len below the size", own, Kind::kTrailingGarbage},
      {"frame_len above the size", own, Kind::kTruncated}};
  cases[1].bytes[0] ^= 0x01;
  cases[2].bytes[2] = wire::kVersion + 1;
  cases[3].bytes.push_back(0);
  ++cases[4].bytes[4];
  auto want = errors;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ASSERT_FALSE(wire::peek_sender(c.bytes).has_value());
    member.deliver_to_group(c.bytes, tx);
    if (::testing::Test::HasFatalFailure()) return;
    ++want[static_cast<std::size_t>(c.kind)];
    EXPECT_EQ(errors, want);  // counted synchronously at ingress
  }
  EXPECT_EQ(stats.self_filtered, 0u);
  EXPECT_EQ(stats.decode_failed, cases.size());

  // The intact frame passes the peek and is filtered as the member's own.
  member.deliver_to_group(own, tx);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(stats.self_filtered, 1u);
  EXPECT_EQ(errors, want);
}

TEST(NetioGroupIngress, MulticastRepliesReachCesrmCarryingTheTurningPoint) {
  LiveMember member(47570, "0(1(2 3) 4)", /*self=*/2, /*cesrm=*/true);
  auto& agent = static_cast<::cesrm::cesrm::CesrmAgent&>(*member.agent);
  UdpSocket ucast_tx;
  UdpSocket group_tx = group_sender();
  const auto push = [&](const net::Packet& pkt, bool via_group) {
    const std::uint64_t decoded = agent.stats().wire_packets_decoded + 1;
    if (via_group)
      member.deliver_to_group(wire::encode_packet(pkt), group_tx);
    else
      member.deliver(wire::encode_packet(pkt), ucast_tx);
    for (int i = 0; i < 2000 && agent.stats().wire_packets_decoded < decoded;
         ++i)
      member.reactor.poll_once(SimTime::millis(5));
    ASSERT_EQ(agent.stats().wire_packets_decoded, decoded);
  };
  // Reveals the losses of 0, 1 and 2 while the cache is empty, so no
  // expedited request goes out.
  push(net::make_data_packet(0, 3), /*via_group=*/true);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(agent.outstanding_losses(), 3u);

  net::RecoveryAnnotation ann;  // the frames carry no turning point
  ann.requestor = 2;
  ann.dist_requestor_source = 0.002;
  ann.dist_replier_requestor = 0.001;
  struct Reply {
    net::NodeId replier;
    net::SeqNo seq;
    bool via_group;
    net::NodeId turning_point;
  };
  for (const Reply& r : {Reply{3, 0, true, member.tree.lca(3, 2)},
                         Reply{4, 1, true, member.tree.lca(4, 2)},
                         // A unicast arrival keeps the frame's annotation.
                         Reply{3, 2, false, net::kInvalidNode}}) {
    SCOPED_TRACE(r.seq);
    ann.replier = r.replier;
    push(net::make_reply_packet(r.replier, 0, r.seq, ann), r.via_group);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(agent.has_packet(r.seq));
    ASSERT_TRUE(agent.cache().most_recent().has_value());
    EXPECT_EQ(agent.cache().most_recent()->seq, r.seq);
    EXPECT_EQ(agent.cache().most_recent()->turning_point, r.turning_point);
  }
  EXPECT_EQ(member.tree.lca(3, 2), 1);  // the router above 2 and 3
  EXPECT_EQ(member.tree.lca(4, 2), 0);
  EXPECT_EQ(agent.outstanding_losses(), 0u);
  EXPECT_EQ(agent.stats().exp_requests_sent, 0u);
}

// ------------------------------------------------- loopback full runs ----

TEST(NetioRun, LossFreeLoopbackDeliversEverything) {
  NetioRunConfig cfg;
  cfg.protocol = Protocol::kSrm;
  cfg.tree_text = "0(1(3 4) 2(5 6))";
  cfg.mcast_port = 47562;
  cfg.packets = 12;
  cfg.period = SimTime::millis(5);
  cfg.warmup = SimTime::millis(200);
  cfg.drain = SimTime::millis(900);
  cfg.cesrm.srm.session_period = SimTime::millis(150);
  cfg.cesrm.srm.oracle_distances = true;
  cfg.shim.link_delay = SimTime::millis(2);

  const NetioRunResult out = run_netio(cfg);  // oracle verdict inside
  const harness::ExperimentResult& r = out.experiment;
  EXPECT_EQ(r.packets_sent, 12);
  EXPECT_EQ(r.protocol, Protocol::kSrm);
  ASSERT_EQ(r.members.size(), 5u);
  EXPECT_TRUE(r.members.front().is_source);
  EXPECT_EQ(r.source().stats.data_sent, 12u);
  EXPECT_EQ(r.total_unrecovered(), 0u);
  EXPECT_EQ(out.total_shim_dropped(), 0u);
  EXPECT_GT(out.total_datagrams_sent(), 0u);
  EXPECT_GT(r.events_executed, 0u);
  // Sessions flowed on the group socket.
  std::uint64_t sessions = 0;
  for (const auto& m : r.members) sessions += m.stats.session_sent;
  EXPECT_GT(sessions, 0u);
}

TEST(NetioRun, SeededLossRecoversEveryPacketAndKeepsVerdictsReproducible) {
  NetioRunConfig cfg;
  cfg.protocol = Protocol::kCesrm;
  cfg.tree_text = "0(1(3 4) 2(5 6))";
  cfg.seed = 5;
  cfg.mcast_port = 47563;
  cfg.packets = 25;
  cfg.period = SimTime::millis(8);
  cfg.warmup = SimTime::millis(300);
  cfg.drain = SimTime::seconds(3);
  cfg.cesrm.srm.session_period = SimTime::millis(150);
  cfg.cesrm.srm.oracle_distances = true;
  cfg.shim.seed = 5;
  cfg.shim.data_loss = 0.2;
  cfg.shim.link_delay = SimTime::millis(3);
  cfg.observe_trace = true;

  const NetioRunResult out = run_netio(cfg);  // throws on any unrecovered
  const harness::ExperimentResult& r = out.experiment;
  EXPECT_EQ(r.packets_sent, 25);
  EXPECT_EQ(r.total_unrecovered(), 0u);
  // With 20% per-link data loss some packets must have been dropped and
  // then recovered.
  EXPECT_GT(out.total_shim_dropped(), 0u);
  EXPECT_GT(r.total_losses_detected() + r.total_silent_repairs(), 0u);
  EXPECT_GT(r.total_recovered(), 0u);
  // The merged observability capture is time-ordered and non-empty.
  ASSERT_TRUE(r.events);
  ASSERT_FALSE(r.events->empty());
  for (std::size_t i = 1; i < r.events->size(); ++i)
    EXPECT_LE((*r.events)[i - 1].at, (*r.events)[i].at);

  // The DATA loss pattern is a pure function of the shim seed: the same
  // verdicts recompute identically after the run.
  const net::MulticastTree tree = net::parse_tree(cfg.tree_text);
  const LossShim shim(tree, cfg.shim);
  std::uint64_t expected_data_drops = 0;
  for (net::SeqNo seq = 0; seq < cfg.packets; ++seq)
    for (net::NodeId rx : tree.receivers())
      if (shim.crossing(data_packet(0, seq), 0, rx, SimTime::zero()).drop)
        ++expected_data_drops;
  const std::uint64_t dropped_data = r.crossings.dropped[
      static_cast<std::size_t>(net::PacketType::kData)];
  EXPECT_EQ(dropped_data, expected_data_drops);
}

TEST(NetioRun, ValidatesConfigWithFriendlyErrors) {
  NetioRunConfig cfg;
  cfg.packets = 0;
  try {
    run_netio(cfg);
    FAIL() << "packets = 0 should throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--packets"), std::string::npos);
  }
  cfg.packets = 1;
  cfg.shim.data_loss = 1.5;
  try {
    run_netio(cfg);
    FAIL() << "data_loss 1.5 should throw";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--data-loss"), std::string::npos) << msg;
    EXPECT_NE(msg.find("probability in [0, 1)"), std::string::npos) << msg;
  }
  cfg.shim.data_loss = 0.0;
  cfg.tree_text = "0";
  EXPECT_THROW(run_netio(cfg), util::CheckError);
  // LMS is refused before any socket is bound: its router replier state
  // exists only in the simulated network.
  cfg.tree_text.clear();
  cfg.protocol = Protocol::kLms;
  try {
    run_netio(cfg);
    FAIL() << "an LMS netio run should throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--protocol"), std::string::npos);
  }
}

}  // namespace
}  // namespace cesrm::netio
