// Tests for the wire-format codec (src/wire): canonical round-trips for
// every PDU kind, the decode-error taxonomy (one test per kind, asserting
// the obs counter increments and agent state stays untouched), ingress
// drops of misaddressed expedited requests and out-of-window seqs, the
// streaming Decoder, byte-accurate Encoder accounting, the committed
// regression corpus, and a structure-aware mutation fuzzer run as a plain
// deterministic CTest (>= 100k iterations; CESRM_WIRE_FUZZ_ITERS scales it
// up for CI smoke runs under ASan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "lms/lms_agent.hpp"
#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "obs/trace_recorder.hpp"
#include "srm/srm_agent.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/random.hpp"

namespace cesrm::wire {
namespace {

using net::NodeId;
using net::Packet;
using net::PacketType;
using net::SeqNo;
using sim::SimTime;

using Bytes = std::vector<std::uint8_t>;

const PacketType kAllTypes[] = {
    PacketType::kData,    PacketType::kSession,    PacketType::kRequest,
    PacketType::kReply,   PacketType::kExpRequest, PacketType::kExpReply,
};

// ----------------------------------------------------------- round-trip ---

// decode(encode(p)) == p, encode(decode) is byte-identical, and the frame
// size matches Packet::encoded_size() — for every PDU kind, 1000 random
// protocol-shaped packets each.
TEST(WireRoundTrip, EveryPduKindRoundTripsExactly) {
  util::Rng rng(0xCE04);
  for (PacketType type : kAllTypes) {
    for (int i = 0; i < 1000; ++i) {
      const Packet p = random_packet_of(type, rng);
      const Bytes buf = encode_packet(p);
      ASSERT_EQ(buf.size(), p.encoded_size())
          << packet_type_name(type) << " iteration " << i;
      Packet back;
      const auto err = decode_packet_exact(buf, &back);
      ASSERT_FALSE(err.has_value())
          << packet_type_name(type) << " iteration " << i << ": "
          << decode_error_name(err->kind) << " at " << err->offset << " ("
          << err->field << ")";
      ASSERT_EQ(back, p) << packet_type_name(type) << " iteration " << i;
      ASSERT_EQ(encode_packet(back), buf)
          << packet_type_name(type) << " iteration " << i;
    }
  }
}

TEST(WireRoundTrip, ConvenienceConstructorsRoundTrip) {
  net::RecoveryAnnotation ann;
  ann.requestor = 3;
  ann.dist_requestor_source = 0.04;
  ann.replier = 5;
  ann.dist_replier_requestor = 0.02;
  ann.turning_point = 1;
  auto session = std::make_shared<net::SessionPayload>();
  session->stamp = SimTime::millis(1234);
  session->streams = {{0, 41}, {7, net::kNoSeq}};
  session->echoes = {{3, SimTime::millis(100), SimTime::millis(7)}};

  const Packet packets[] = {
      net::make_data_packet(0, 17),
      net::make_session_packet(3, 0, session),
      net::make_request_packet(3, 0, 17, 0.04),
      net::make_reply_packet(5, 0, 17, ann),
      net::make_exp_request_packet(3, 5, 0, 17, ann),
      net::make_exp_reply_packet(5, 0, 17, ann),
  };
  for (const Packet& p : packets) {
    Packet back;
    ASSERT_FALSE(decode_packet_exact(encode_packet(p), &back).has_value())
        << packet_type_name(p.type);
    EXPECT_EQ(back, p) << packet_type_name(p.type);
  }
}

TEST(WireRoundTrip, EncodedSizeMatchesLayoutConstants) {
  // DATA: header + 1024 payload.
  EXPECT_EQ(net::make_data_packet(0, 1).encoded_size(), kHeaderSize + 1024);
  // REQUEST: header + 12-byte ⟨q, d̂qs⟩ annotation, no payload.
  EXPECT_EQ(net::make_request_packet(3, 0, 1, 0.1).encoded_size(),
            kHeaderSize + kRequestAnnSize);
  // REPLY: header + 28-byte full annotation + payload.
  net::RecoveryAnnotation ann;
  ann.requestor = 3;
  EXPECT_EQ(net::make_reply_packet(5, 0, 1, ann).encoded_size(),
            kHeaderSize + kReplyAnnSize + 1024);
  // SESSION: header + fixed part + per-entry sizes.
  auto session = std::make_shared<net::SessionPayload>();
  session->streams.resize(2);
  session->echoes.resize(3);
  EXPECT_EQ(net::make_session_packet(3, 0, session).encoded_size(),
            kHeaderSize + kSessionFixedSize + 2 * kStreamAdvertSize +
                3 * kSessionEchoSize);
}

// ------------------------------------------------------ decoder details ---

TEST(WireDecode, EmptyAndTinyBuffersAreTruncated) {
  Packet out;
  const auto e0 = decode_packet(Bytes{}, &out);
  ASSERT_TRUE(e0.has_value());
  EXPECT_EQ(e0->kind, DecodeErrorKind::kTruncated);
  const auto e1 = decode_packet(Bytes{0x04}, &out);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->kind, DecodeErrorKind::kTruncated);
}

TEST(WireDecode, MagicCheckedBeforeEverythingElse) {
  // A buffer wrong in every way reports bad-magic first.
  Packet out;
  const Bytes junk(kHeaderSize, 0xFF);
  const auto err = decode_packet(junk, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kBadMagic);
  EXPECT_EQ(err->offset, 0u);
}

TEST(WireDecode, VersionCheckedBeforeType) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  buf[2] = kVersion + 1;
  buf[3] = 0xEE;  // also corrupt the type: version must win
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kBadVersion);
  EXPECT_EQ(err->offset, 2u);
}

TEST(WireDecode, UnknownTypeIsFieldOutOfRange) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  buf[3] = net::kPacketTypeCount;
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "type");
}

TEST(WireDecode, FrameLenBeyondBufferIsTruncated) {
  Bytes buf = encode_packet(net::make_request_packet(3, 0, 1, 0.1));
  buf.pop_back();
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kTruncated);
}

TEST(WireDecode, FrameLenSmallerThanHeaderIsOutOfRange) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  buf[4] = kHeaderSize - 1;  // frame_len low byte
  buf[5] = buf[6] = buf[7] = 0;
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "frame_len");
}

TEST(WireDecode, NegativeSourceRejected) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  for (int i = 0; i < 4; ++i) buf[8 + i] = 0xFF;  // source = -1
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "source");
}

TEST(WireDecode, DestOnlyAllowedOnExpRequest) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  buf[24] = 5;  // dest = 5 on a DATA frame
  for (int i = 1; i < 4; ++i) buf[24 + i] = 0;
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "dest");
}

TEST(WireDecode, PayloadOnControlFrameRejected) {
  // A REQUEST whose payload_len claims bytes: control PDUs carry none.
  Packet req = net::make_request_packet(3, 0, 1, 0.1);
  req.size_bytes = 64;  // force a payload onto a control frame
  Bytes buf = encode_packet(req);
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "payload_len");
}

TEST(WireDecode, NonZeroPayloadBytesRejectedAsNonCanonical) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  buf.back() = 0x01;  // payload content is not modelled: must be zero
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "payload");
}

TEST(WireDecode, NonZeroPayloadErrorNamesTheFirstNonZeroByte) {
  // The payload is checked a word at a time; the error must still name
  // the byte a byte-by-byte scan stops at, for every word alignment and
  // tail length, with and without a later non-zero byte behind it.
  std::vector<int> lengths;
  for (int len = 1; len <= 24; ++len) lengths.push_back(len);
  lengths.push_back(1024);
  for (int len : lengths) {
    Packet data = net::make_data_packet(0, 1);
    data.size_bytes = len;
    const Bytes clean = encode_packet(data);
    const std::size_t start = clean.size() - static_cast<std::size_t>(len);
    for (std::size_t at = start; at < clean.size(); ++at) {
      for (bool trailing : {false, true}) {
        Bytes buf = clean;
        buf[at] = 0x80;
        if (trailing) buf.back() |= 0x01;
        std::size_t first = start;
        while (buf[first] == 0) ++first;  // the byte loop's verdict
        Packet out;
        const auto err = decode_packet(buf, &out);
        ASSERT_TRUE(err.has_value()) << "len " << len << " at " << at;
        EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
        EXPECT_EQ(err->offset, first) << "len " << len << " at " << at;
        EXPECT_STREQ(err->field, "payload");
      }
    }
  }
}

TEST(WireDecode, NonFiniteDistanceRejected) {
  Packet req = net::make_request_packet(3, 0, 1, 0.1);
  Bytes buf = encode_packet(req);
  // Overwrite d̂qs (at header end + 4) with the bit pattern of +inf.
  const std::uint64_t inf_bits = 0x7FF0000000000000ULL;
  for (int i = 0; i < 8; ++i)
    buf[kHeaderSize + 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(inf_bits >> (8 * i));
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kFieldOutOfRange);
  EXPECT_STREQ(err->field, "ann.dist_requestor_source");
}

TEST(WireDecode, HostileSessionCountsCannotForceAllocation) {
  // A session frame claiming 65535 streams in a 44-byte frame must be
  // rejected as truncated before any entry storage is reserved.
  auto session = std::make_shared<net::SessionPayload>();
  session->stamp = SimTime::millis(5);
  Bytes buf = encode_packet(net::make_session_packet(3, 0, session));
  buf[kHeaderSize + 8] = 0xFF;  // n_streams = 0xFFFF
  buf[kHeaderSize + 9] = 0xFF;
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kTruncated);
  EXPECT_STREQ(err->field, "session_entries");
}

TEST(WireDecode, ExactRejectsTrailingBytesAfterValidFrame) {
  Bytes buf = encode_packet(net::make_data_packet(0, 1));
  const std::size_t frame_len = buf.size();
  buf.push_back(0x00);
  Packet out;
  const auto err = decode_packet_exact(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kTrailingGarbage);
  EXPECT_EQ(err->offset, frame_len);
}

TEST(WireDecode, InflatedFrameLenIsTrailingGarbageInsideFrame) {
  // frame_len says 4 more bytes than the fields need; the surplus lies
  // inside the frame, after the parsed fields.
  Bytes buf = encode_packet(net::make_request_packet(3, 0, 1, 0.1));
  const std::uint32_t inflated = static_cast<std::uint32_t>(buf.size()) + 4;
  for (int i = 0; i < 4; ++i)
    buf[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(inflated >> (8 * i));
  buf.insert(buf.end(), 4, 0x00);
  Packet out;
  const auto err = decode_packet(buf, &out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, DecodeErrorKind::kTrailingGarbage);
}

TEST(WirePeek, EveryFrameTheDecoderAcceptsPassesWithItsSender) {
  // netio's self-filter relies on this: a frame that would decode can
  // never slip past the peek.
  util::Rng rng(0x9EEC);
  std::uint64_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const Packet p = random_packet(rng);
    Bytes buf = encode_packet(p);
    ASSERT_EQ(peek_sender(buf), p.sender);
    // One header-area mutation; whatever still decodes must still peek.
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, 31));
    buf[i] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    Packet out;
    if (!decode_packet_exact(buf, &out)) {
      ++accepted;
      ASSERT_EQ(peek_sender(buf), out.sender) << "iteration " << iter;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(WirePeek, RejectsAnythingButOneWholeFrameHeader) {
  const Bytes frame = encode_packet(net::make_request_packet(3, 0, 1, 0.1));
  ASSERT_EQ(peek_sender(frame), 3);
  const Bytes shorter(frame.begin(), frame.begin() + kHeaderSize - 1);
  Bytes bad_magic = frame;
  bad_magic[1] ^= 0x40;
  Bytes bad_version = frame;
  bad_version[2] = kVersion + 1;
  Bytes longer = frame;
  longer.push_back(0);
  Bytes inflated = frame;
  ++inflated[4];
  for (const Bytes& b : {shorter, bad_magic, bad_version, longer, inflated})
    EXPECT_FALSE(peek_sender(b).has_value());
  EXPECT_FALSE(peek_sender(Bytes{}).has_value());
}

// ------------------------------------------------------------- encoder ----

TEST(WireEncoder, PerTypeAccountingIsExact) {
  util::Rng rng(7);
  Encoder enc;
  std::array<std::uint64_t, net::kPacketTypeCount> want_counts{};
  std::array<std::uint64_t, net::kPacketTypeCount> want_bytes{};
  for (int i = 0; i < 200; ++i) {
    const Packet p = random_packet(rng);
    const std::size_t n = enc.add(p);
    EXPECT_EQ(n, p.encoded_size());
    ++want_counts[static_cast<std::size_t>(p.type)];
    want_bytes[static_cast<std::size_t>(p.type)] += n;
  }
  std::uint64_t total = 0;
  for (PacketType t : kAllTypes) {
    EXPECT_EQ(enc.count_of(t), want_counts[static_cast<std::size_t>(t)]);
    EXPECT_EQ(enc.bytes_of(t), want_bytes[static_cast<std::size_t>(t)]);
    total += enc.bytes_of(t);
  }
  EXPECT_EQ(enc.total_count(), 200u);
  EXPECT_EQ(enc.total_bytes(), total);
  EXPECT_EQ(enc.bytes().size(), total);
}

// ------------------------------------------------------------- decoder ----

TEST(WireDecoder, StreamsBackToBackFrames) {
  util::Rng rng(11);
  Encoder enc;
  std::vector<Packet> sent;
  for (int i = 0; i < 64; ++i) {
    sent.push_back(random_packet(rng));
    enc.add(sent.back());
  }
  Decoder dec(enc.bytes());
  Packet got;
  std::size_t i = 0;
  while (dec.next(&got)) {
    ASSERT_LT(i, sent.size());
    EXPECT_EQ(got, sent[i]);
    ++i;
  }
  EXPECT_EQ(i, sent.size());
  EXPECT_TRUE(dec.at_end());
  EXPECT_FALSE(dec.error().has_value());
  EXPECT_EQ(dec.frames_decoded(), sent.size());
  EXPECT_EQ(dec.offset(), enc.bytes().size());
}

TEST(WireDecoder, StopsAtFirstMalformedFrameWithAbsoluteOffset) {
  Encoder enc;
  enc.add(net::make_data_packet(0, 1));
  const std::size_t second = enc.bytes().size();
  enc.add(net::make_request_packet(3, 0, 2, 0.1));
  Bytes buf = enc.take();
  buf[second] ^= 0xFF;  // corrupt the second frame's magic
  Decoder dec(buf);
  Packet got;
  EXPECT_TRUE(dec.next(&got));
  EXPECT_FALSE(dec.next(&got));
  ASSERT_TRUE(dec.error().has_value());
  EXPECT_EQ(dec.error()->kind, DecodeErrorKind::kBadMagic);
  EXPECT_EQ(dec.error()->offset, second);
  EXPECT_FALSE(dec.at_end());
  // The decoder stays stopped: no resync.
  EXPECT_FALSE(dec.next(&got));
  EXPECT_EQ(dec.frames_decoded(), 1u);
}

// -------------------------------------------------- taxonomy at ingress ---

/// Two-member bench on tree 0(1(3)) with an obs recorder attached: the
/// receiver at 3 takes hostile bytes through SrmAgent::on_wire.
struct IngressBench {
  IngressBench() : recorder(obs::ObsConfig{}) {
    tree = std::make_unique<net::MulticastTree>(net::parse_tree("0(1(2))"));
    network = std::make_unique<net::Network>(sim, *tree, net::NetworkConfig{});
    sim.set_recorder(&recorder);
    srm::SrmConfig config;
    config.oracle_distances = true;
    source = std::make_unique<srm::SrmAgent>(sim, *network, 0, 0, config,
                                             util::Rng(1));
    receiver = std::make_unique<srm::SrmAgent>(sim, *network, 2, 0, config,
                                               util::Rng(2));
  }

  /// A state fingerprint that any rejected frame must leave unchanged.
  struct Fingerprint {
    std::uint64_t decoded, losses, requests, data;
    std::size_t outstanding, streams, recoveries;
    SeqNo highest;
    bool operator==(const Fingerprint&) const = default;
  };
  Fingerprint fingerprint() const {
    const srm::HostStats& s = receiver->stats();
    return {s.wire_packets_decoded, s.losses_detected,  s.requests_received,
            s.data_sent,            receiver->outstanding_losses(),
            receiver->known_streams().size(),           s.recoveries.size(),
            receiver->highest_seq()};
  }

  /// Feeds `bytes` to the receiver and asserts the rejection bookkeeping:
  /// the taxonomy counter and the kDecodeError trace event increment, and
  /// the protocol state fingerprint is untouched.
  void expect_rejected(const Bytes& bytes, DecodeErrorKind kind) {
    const Fingerprint before = fingerprint();
    const auto counter = static_cast<std::size_t>(kind);
    const std::uint64_t errors_before =
        receiver->stats().wire_decode_errors[counter];
    const std::uint64_t total_before =
        receiver->stats().wire_decode_errors_total();
    const std::uint64_t events_before =
        recorder.count(obs::EventKind::kDecodeError);
    EXPECT_FALSE(receiver->on_wire(bytes));
    EXPECT_EQ(receiver->stats().wire_decode_errors[counter],
              errors_before + 1);
    EXPECT_EQ(recorder.count(obs::EventKind::kDecodeError),
              events_before + 1);
    EXPECT_EQ(receiver->stats().wire_decode_errors_total(), total_before + 1);
    EXPECT_TRUE(fingerprint() == before);
  }

  sim::Simulator sim;
  obs::TraceRecorder recorder;
  std::unique_ptr<net::MulticastTree> tree;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<srm::SrmAgent> source;
  std::unique_ptr<srm::SrmAgent> receiver;
};

TEST(WireIngress, TruncatedFrameCountedAndDropped) {
  IngressBench bench;
  Bytes buf = encode_packet(net::make_data_packet(0, 0));
  buf.resize(buf.size() / 2);
  bench.expect_rejected(buf, DecodeErrorKind::kTruncated);
}

TEST(WireIngress, BadMagicCountedAndDropped) {
  IngressBench bench;
  Bytes buf = encode_packet(net::make_data_packet(0, 0));
  buf[0] ^= 0x01;
  bench.expect_rejected(buf, DecodeErrorKind::kBadMagic);
}

TEST(WireIngress, BadVersionCountedAndDropped) {
  IngressBench bench;
  Bytes buf = encode_packet(net::make_data_packet(0, 0));
  buf[2] = kVersion + 1;
  bench.expect_rejected(buf, DecodeErrorKind::kBadVersion);
}

TEST(WireIngress, FieldOutOfRangeCountedAndDropped) {
  IngressBench bench;
  // seq = -2 on a DATA frame.
  Bytes buf = encode_packet(net::make_data_packet(0, 0));
  buf[12] = 0xFE;
  for (int i = 1; i < 8; ++i) buf[12 + i] = 0xFF;
  bench.expect_rejected(buf, DecodeErrorKind::kFieldOutOfRange);
}

TEST(WireIngress, TrailingGarbageCountedAndDropped) {
  IngressBench bench;
  Bytes buf = encode_packet(net::make_data_packet(0, 0));
  buf.push_back(0xAA);
  bench.expect_rejected(buf, DecodeErrorKind::kTrailingGarbage);
}

TEST(WireIngress, EachKindCountsIndependently) {
  IngressBench bench;
  const Bytes valid = encode_packet(net::make_data_packet(0, 0));
  Bytes bad_magic = valid;
  bad_magic[0] ^= 0x01;
  bench.expect_rejected(bad_magic, DecodeErrorKind::kBadMagic);
  bench.expect_rejected(bad_magic, DecodeErrorKind::kBadMagic);
  Bytes truncated = valid;
  truncated.resize(5);
  bench.expect_rejected(truncated, DecodeErrorKind::kTruncated);
  EXPECT_EQ(bench.receiver->stats().wire_decode_errors_total(), 3u);
  EXPECT_EQ(bench.recorder.count(obs::EventKind::kDecodeError), 3u);
}

TEST(WireIngress, ValidFrameDispatchesIntoTheProtocol) {
  IngressBench bench;
  EXPECT_FALSE(bench.receiver->has_packet(0, 0));
  EXPECT_TRUE(bench.receiver->on_wire(encode_packet(net::make_data_packet(0, 0))));
  EXPECT_EQ(bench.receiver->stats().wire_packets_decoded, 1u);
  EXPECT_EQ(bench.receiver->stats().wire_decode_errors_total(), 0u);
  EXPECT_TRUE(bench.receiver->has_packet(0, 0));
  // A gap-revealing frame drives loss detection exactly like on_packet.
  EXPECT_TRUE(bench.receiver->on_wire(encode_packet(net::make_data_packet(0, 2))));
  EXPECT_EQ(bench.receiver->stats().losses_detected, 1u);
  EXPECT_EQ(bench.receiver->outstanding_losses(), 1u);
}

// ----------------------------------------- misaddressed expedited request --

TEST(WireIngress, MisaddressedExpRequestIsDroppedAndCounted) {
  // Member 2 of 0(1(2 3)) holds packet 0. A well-formed EXP-REQUEST for it
  // that names member 3 as its destination is not 2's to answer: ingress
  // drops and counts it, for CESRM and LMS alike. Addressed to 2, the same
  // request is answered.
  const net::MulticastTree tree = net::parse_tree("0(1(2 3))");
  for (const bool lms_member : {false, true}) {
    SCOPED_TRACE(lms_member ? "LMS" : "CESRM");
    sim::Simulator sim;
    net::Network network(sim, tree, net::NetworkConfig{});
    lms::LmsDirectory directory(sim, tree, SimTime::seconds(10));
    std::unique_ptr<srm::SrmAgent> member;
    if (lms_member)
      member = std::make_unique<lms::LmsAgent>(
          sim, network, 2, 0, srm::SrmConfig{}, directory, util::Rng(1));
    else
      member = std::make_unique<::cesrm::cesrm::CesrmAgent>(
          sim, network, 2, 0, ::cesrm::cesrm::CesrmConfig{}, util::Rng(1));
    ASSERT_TRUE(member->on_wire(encode_packet(net::make_data_packet(0, 0))));

    net::RecoveryAnnotation ann;
    ann.requestor = 3;
    ann.replier = 3;
    ann.turning_point = 1;
    EXPECT_TRUE(member->on_wire(encode_packet(
        net::make_exp_request_packet(3, /*dest=*/3, 0, 0, ann))));
    EXPECT_EQ(member->stats().exp_requests_misaddressed, 1u);
    EXPECT_EQ(member->stats().exp_replies_sent, 0u);

    ann.replier = 2;
    EXPECT_TRUE(member->on_wire(encode_packet(
        net::make_exp_request_packet(3, /*dest=*/2, 0, 0, ann))));
    EXPECT_EQ(member->stats().exp_requests_misaddressed, 1u);
    EXPECT_EQ(member->stats().exp_replies_sent, 1u);
    EXPECT_EQ(member->stats().wire_packets_decoded, 3u);
  }
}

// ------------------------------------------- sequence window at ingress ---

/// A session packet from the source advertising `highest` on its stream.
Packet session_advert(SeqNo highest) {
  auto payload = std::make_shared<net::SessionPayload>();
  payload->streams.push_back({0, highest});
  return net::make_session_packet(0, 0, std::move(payload));
}

/// Well-formed DATA, REQUEST, REPLY and SESSION frames naming `seq`.
std::vector<Bytes> frames_naming(SeqNo seq) {
  net::RecoveryAnnotation ann;
  ann.requestor = 2;
  ann.replier = 0;
  return {encode_packet(net::make_data_packet(0, seq)),
          encode_packet(net::make_request_packet(0, 0, seq, 0.01)),
          encode_packet(net::make_reply_packet(0, 0, seq, ann)),
          encode_packet(session_advert(seq))};
}

TEST(WireIngress, SeqsBeyondTheWindowAreDroppedAndCounted) {
  IngressBench bench;
  srm::SrmAgent& rx = *bench.receiver;
  ASSERT_TRUE(rx.on_wire(encode_packet(net::make_data_packet(0, 0))));
  // Held: seq 0. Each frame decodes, then ingress drops it unseen.
  for (const Bytes& frame : frames_naming(0 + srm::kSeqWindow + 1000))
    EXPECT_TRUE(rx.on_wire(frame));
  EXPECT_EQ(rx.stats().wire_packets_decoded, 5u);
  EXPECT_EQ(rx.stats().seq_beyond_window, 4u);
  EXPECT_EQ(rx.highest_seq(), 0);
  EXPECT_EQ(rx.stats().losses_detected, 0u);
  EXPECT_EQ(rx.stats().requests_received, 0u);
  EXPECT_EQ(rx.outstanding_losses(), 0u);
  EXPECT_EQ(rx.known_streams().size(), 1u);

  // One past the window is dropped. The window's edge is a legitimate
  // jump, and every packet up to it is a detected loss.
  EXPECT_TRUE(rx.on_wire(encode_packet(session_advert(srm::kSeqWindow + 1))));
  EXPECT_EQ(rx.stats().seq_beyond_window, 5u);
  EXPECT_TRUE(rx.on_wire(encode_packet(session_advert(srm::kSeqWindow))));
  EXPECT_EQ(rx.stats().seq_beyond_window, 5u);
  EXPECT_EQ(rx.highest_seq(), srm::kSeqWindow);
  EXPECT_EQ(rx.stats().losses_detected,
            static_cast<std::uint64_t>(srm::kSeqWindow));
}

TEST(WireIngress, MaxSeqFramesLeaveTheMemberRunning) {
  IngressBench bench;
  srm::SrmAgent& rx = *bench.receiver;
  for (const Bytes& frame : frames_naming(kMaxSeqNo))
    EXPECT_TRUE(rx.on_wire(frame));
  EXPECT_EQ(rx.stats().seq_beyond_window, 4u);
  EXPECT_EQ(rx.highest_seq(), net::kNoSeq);
  EXPECT_EQ(rx.stats().losses_detected, 0u);

  // The group still runs: the source's packet 1 misses the receiver, the
  // receiver detects the gap at packet 2 and recovers it by request.
  bench.network->set_drop_fn(
      [](const Packet& pkt, NodeId, NodeId to) {
        return pkt.type == PacketType::kData && pkt.seq == 1 && to == 2;
      });
  for (SeqNo seq = 0; seq < 3; ++seq)
    bench.sim.schedule_at(SimTime::millis(80) * seq,
                          [&bench, seq] { bench.source->send_data(seq); });
  bench.sim.run_until(SimTime::seconds(5));
  for (SeqNo seq = 0; seq < 3; ++seq)
    EXPECT_TRUE(rx.has_packet(0, seq)) << "seq " << seq;
  EXPECT_EQ(rx.stats().losses_detected, 1u);
  EXPECT_EQ(rx.outstanding_losses(), 0u);
  EXPECT_EQ(rx.stats().seq_beyond_window, 4u);
}

// ------------------------------------------------------------- corpus -----

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

std::optional<DecodeErrorKind> expected_kind_from_name(
    const std::string& stem) {
  // bad-<kind-name>-description.hex; kind names themselves contain dashes,
  // so match each taxonomy name as a prefix of the remainder.
  if (!stem.starts_with("bad-")) return std::nullopt;
  const std::string rest = stem.substr(4);
  for (std::size_t k = 0; k < kDecodeErrorKindCount; ++k) {
    const auto kind = static_cast<DecodeErrorKind>(k);
    if (rest.starts_with(decode_error_name(kind))) return kind;
  }
  ADD_FAILURE() << "corpus file " << stem
                << " names no known decode-error kind";
  return std::nullopt;
}

// Replays the committed regression corpus: ok-* files must decode and
// re-encode byte-identically; bad-<kind>-* files must be rejected with
// exactly that taxonomy kind.
TEST(WireCorpus, RegressionCorpusReplays) {
  const std::filesystem::path dir = CESRM_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t ok_files = 0, bad_files = 0;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".hex") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "empty corpus at " << dir;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string stem = path.stem().string();
    const Bytes bytes = parse_hex_file(path);
    Packet pkt;
    const auto err = decode_packet_exact(bytes, &pkt);
    if (stem.starts_with("ok-")) {
      ++ok_files;
      ASSERT_FALSE(err.has_value())
          << decode_error_name(err->kind) << " at " << err->offset << " ("
          << err->field << ")";
      EXPECT_EQ(encode_packet(pkt), bytes) << "corpus frame not canonical";
    } else {
      ++bad_files;
      const auto want = expected_kind_from_name(stem);
      ASSERT_TRUE(want.has_value()) << "unrecognized corpus file name";
      ASSERT_TRUE(err.has_value()) << "expected rejection";
      EXPECT_EQ(err->kind, *want)
          << "got " << decode_error_name(err->kind) << " at " << err->offset
          << " (" << err->field << ")";
    }
  }
  // The committed corpus covers both sides and every taxonomy kind.
  EXPECT_GE(ok_files, 6u) << "one ok- file per PDU kind, at least";
  EXPECT_GE(bad_files, kDecodeErrorKindCount);
}

// -------------------------------------------------------------- fuzzer ----

/// Structure-aware mutation fuzzer, run as a plain deterministic CTest:
/// encode a valid random frame, corrupt it (bit flips, byte stomps,
/// truncation, extension, length tweaks, splices), and decode. Decoding
/// must never crash or read out of bounds (the CI wire job runs this under
/// ASan); whatever it accepts must be canonical (re-encode byte-identical
/// to the consumed prefix).
TEST(WireFuzz, MutatedFramesNeverBreakTheDecoder) {
  std::int64_t iterations = 100000;
  if (const char* env = std::getenv("CESRM_WIRE_FUZZ_ITERS")) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) iterations = v;
  }
  util::Rng rng(0xF0220);
  std::array<std::uint64_t, kDecodeErrorKindCount> rejected{};
  std::uint64_t accepted = 0;
  for (std::int64_t iter = 0; iter < iterations; ++iter) {
    Bytes buf = encode_packet(random_packet(rng));
    // 1-3 mutations per iteration.
    const std::int64_t n_mut = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < n_mut; ++m) {
      switch (rng.uniform_int(0, 5)) {
        case 0: {  // flip one bit
          if (buf.empty()) break;  // a prior truncation may have emptied it
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
          buf[i] ^= static_cast<std::uint8_t>(1
                                              << rng.uniform_int(0, 7));
          break;
        }
        case 1: {  // stomp one byte
          if (buf.empty()) break;
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
          buf[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          break;
        }
        case 2:  // truncate
          buf.resize(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(buf.size()))));
          break;
        case 3: {  // extend with random bytes
          const std::int64_t n = rng.uniform_int(1, 8);
          for (std::int64_t i = 0; i < n; ++i)
            buf.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
          break;
        }
        case 4: {  // tweak the frame_len field
          if (buf.size() >= kFramePrefixSize) {
            const auto i = static_cast<std::size_t>(rng.uniform_int(4, 7));
            buf[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          }
          break;
        }
        case 5: {  // splice: prepend a prefix of another valid frame
          const Bytes other = encode_packet(random_packet(rng));
          const auto cut = static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(other.size())));
          buf.insert(buf.begin(), other.begin(),
                     other.begin() + static_cast<std::ptrdiff_t>(cut));
          break;
        }
      }
    }
    Packet out;
    std::size_t consumed = 0;
    if (auto err = decode_packet(buf, &out, &consumed)) {
      const auto k = static_cast<std::size_t>(err->kind);
      ASSERT_LT(k, kDecodeErrorKindCount);
      ASSERT_LE(err->offset, buf.size());
      ++rejected[k];
    } else {
      // Accepted: must be exactly canonical for the consumed prefix.
      ++accepted;
      ASSERT_LE(consumed, buf.size());
      const Bytes re = encode_packet(out);
      ASSERT_EQ(re.size(), consumed);
      ASSERT_TRUE(std::equal(re.begin(), re.end(), buf.begin()))
          << "accepted frame is not canonical at iteration " << iter;
    }
  }
  std::uint64_t total = accepted;
  for (const auto r : rejected) total += r;
  EXPECT_EQ(total, static_cast<std::uint64_t>(iterations));
  // The mutation mix must exercise every rejection kind (a fixed seed makes
  // this deterministic) and still let some frames through intact.
  for (std::size_t k = 0; k < kDecodeErrorKindCount; ++k)
    EXPECT_GT(rejected[k], 0u)
        << "kind never hit: "
        << decode_error_name(static_cast<DecodeErrorKind>(k));
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace cesrm::wire
