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
    if (v3.drop) EXPECT_EQ(v3.dropped_on, 1);
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
/// frame's stream advert from 7), with this member at leaf 1.
struct LiveMember {
  net::MulticastTree tree = net::parse_tree("0(1 2 3 4 5 6 7)");
  AddressPlan plan;
  ShimConfig shim_cfg;
  std::unique_ptr<LossShim> shim;
  MonotonicClock clock;
  Reactor reactor{clock};
  std::unique_ptr<SocketTransport> transport;
  std::unique_ptr<srm::SrmAgent> agent;

  explicit LiveMember(std::uint16_t mcast_port) {
    plan.mcast_port = mcast_port;
    plan.unicast.assign(tree.size(), Endpoint{});
    // Must be nonzero: agents derive request-timer delays from path_delay,
    // and a zero distance would re-arm them at +0 forever.
    shim_cfg.link_delay = SimTime::millis(1);
    shim = std::make_unique<LossShim>(tree, shim_cfg);
    transport =
        std::make_unique<SocketTransport>(reactor, tree, plan, *shim, 1);
    for (net::NodeId leaf : tree.receivers())  // every member loops to self
      plan.unicast[static_cast<std::size_t>(leaf)] =
          transport->unicast_endpoint();
    agent = std::make_unique<srm::SrmAgent>(reactor.sim(), *transport, 1, 0,
                                            srm::SrmConfig{}, util::Rng(1));
  }

  /// Sends `bytes` to the member's unicast socket and polls until the
  /// transport has seen it (or a generous timeout trips).
  void deliver(const std::vector<std::uint8_t>& bytes, UdpSocket& tx) {
    const std::uint64_t before = transport->stats().datagrams_received;
    ASSERT_TRUE(tx.send_to(transport->unicast_endpoint(), bytes));
    for (int i = 0; i < 2000; ++i) {
      reactor.poll_once(SimTime::millis(5));
      if (transport->stats().datagrams_received > before) return;
    }
    FAIL() << "datagram never arrived on the unicast socket";
  }
};

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
}

}  // namespace
}  // namespace cesrm::netio
