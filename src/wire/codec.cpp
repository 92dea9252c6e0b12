#include "wire/codec.hpp"

#include <cmath>
#include <cstring>

#include "util/check.hpp"

namespace cesrm::wire {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives. Byte-assembled rather than memcpy'd so the
// format is host-endianness-independent; the compiler folds these into
// single moves on little-endian targets.
// ---------------------------------------------------------------------------

void put_u16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<std::uint8_t>* out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>* out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>* out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounded little-endian reader over one frame. Every read either succeeds
/// or records a kTruncated error at the current offset; reads after a
/// failure are no-ops, so parse code can read a batch of fields and check
/// once.
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> frame, std::size_t base_offset)
      : frame_(frame), base_(base_offset) {}

  bool ok() const { return !error_; }
  const std::optional<DecodeError>& error() const { return error_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return frame_.size() - pos_; }

  void fail(DecodeErrorKind kind, const char* field) {
    if (!error_) error_ = DecodeError{kind, base_ + pos_, field};
  }

  std::uint16_t u16(const char* field) {
    std::uint64_t v = raw(2, field);
    return static_cast<std::uint16_t>(v);
  }
  std::uint32_t u32(const char* field) {
    return static_cast<std::uint32_t>(raw(4, field));
  }
  std::int32_t i32(const char* field) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(raw(4, field)));
  }
  std::int64_t i64(const char* field) {
    return static_cast<std::int64_t>(raw(8, field));
  }
  double f64(const char* field) {
    const std::uint64_t bits = raw(8, field);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Consumes `n` bytes, requiring them all zero (the canonical payload).
  /// Tests 8 bytes at a time, then byte by byte from the first non-zero
  /// word through the tail, so an error names the first non-zero byte.
  void zeros(std::size_t n, const char* field) {
    if (error_) return;
    if (remaining() < n) {
      fail(DecodeErrorKind::kTruncated, field);
      return;
    }
    const std::uint8_t* bytes = frame_.data() + pos_;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, bytes + i, sizeof(word));
      if (word != 0) break;
    }
    for (; i < n; ++i) {
      if (bytes[i] != 0) {
        pos_ += i;
        fail(DecodeErrorKind::kFieldOutOfRange, field);
        return;
      }
    }
    pos_ += n;
  }

 private:
  std::uint64_t raw(std::size_t n, const char* field) {
    if (error_) return 0;
    if (remaining() < n) {
      fail(DecodeErrorKind::kTruncated, field);
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(frame_[pos_ + i]) << (8 * i);
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> frame_;
  std::size_t base_;
  std::size_t pos_ = 0;
  std::optional<DecodeError> error_;
};

// ---------------------------------------------------------------------------
// Field validation
// ---------------------------------------------------------------------------

bool valid_node(net::NodeId v) { return v >= 0 && v <= kMaxNodeId; }
bool valid_node_or_none(net::NodeId v) {
  return v == net::kInvalidNode || valid_node(v);
}
bool valid_dist(double v) {
  return std::isfinite(v) && v >= 0.0 && v <= kMaxDistanceSeconds;
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

void encode_packet(const net::Packet& pkt, std::vector<std::uint8_t>* out) {
  const std::size_t frame_len = pkt.encoded_size();
  out->reserve(out->size() + frame_len);
  put_u16(out, kMagic);
  out->push_back(kVersion);
  out->push_back(static_cast<std::uint8_t>(pkt.type));
  put_u32(out, static_cast<std::uint32_t>(frame_len));
  put_i32(out, pkt.source);
  put_i64(out, pkt.seq);
  put_i32(out, pkt.sender);
  put_i32(out, pkt.dest);
  const std::uint32_t payload_len =
      pkt.size_bytes > 0 ? static_cast<std::uint32_t>(pkt.size_bytes) : 0;
  put_u32(out, payload_len);

  switch (pkt.type) {
    case net::PacketType::kData:
      CESRM_DCHECK(pkt.session == nullptr);
      break;
    case net::PacketType::kSession: {
      CESRM_CHECK(pkt.session != nullptr);
      const net::SessionPayload& s = *pkt.session;
      CESRM_CHECK(s.streams.size() <= 0xFFFF && s.echoes.size() <= 0xFFFF);
      put_i64(out, s.stamp.ns());
      put_u16(out, static_cast<std::uint16_t>(s.streams.size()));
      put_u16(out, static_cast<std::uint16_t>(s.echoes.size()));
      for (const net::StreamAdvert& a : s.streams) {
        put_i32(out, a.source);
        put_i64(out, a.highest_seq);
      }
      for (const net::SessionEcho& e : s.echoes) {
        put_i32(out, e.peer);
        put_i64(out, e.peer_stamp.ns());
        put_i64(out, e.hold.ns());
      }
      break;
    }
    case net::PacketType::kRequest:
      put_i32(out, pkt.ann.requestor);
      put_f64(out, pkt.ann.dist_requestor_source);
      break;
    case net::PacketType::kReply:
    case net::PacketType::kExpRequest:
    case net::PacketType::kExpReply:
      put_i32(out, pkt.ann.requestor);
      put_f64(out, pkt.ann.dist_requestor_source);
      put_i32(out, pkt.ann.replier);
      put_f64(out, pkt.ann.dist_replier_requestor);
      put_i32(out, pkt.ann.turning_point);
      break;
  }
  // Payload content is not modelled: canonical frames zero-fill it.
  out->insert(out->end(), payload_len, 0);
}

std::vector<std::uint8_t> encode_packet(const net::Packet& pkt) {
  std::vector<std::uint8_t> out;
  encode_packet(pkt, &out);
  return out;
}

std::size_t Encoder::add(const net::Packet& pkt) {
  const std::size_t before = buf_.size();
  encode_packet(pkt, &buf_);
  const std::size_t n = buf_.size() - before;
  const auto i = static_cast<std::size_t>(pkt.type);
  ++counts_[i];
  bytes_[i] += n;
  return n;
}

std::uint64_t Encoder::total_count() const {
  std::uint64_t n = 0;
  for (const auto c : counts_) n += c;
  return n;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

std::optional<DecodeError> decode_packet(std::span<const std::uint8_t> bytes,
                                         net::Packet* out,
                                         std::size_t* consumed) {
  // Prologue: magic, version, type, frame length. Checked field by field so
  // the error names the first thing wrong with the buffer.
  if (bytes.size() < 2)
    return DecodeError{DecodeErrorKind::kTruncated, 0, "magic"};
  const std::uint16_t magic = static_cast<std::uint16_t>(
      bytes[0] | (static_cast<std::uint16_t>(bytes[1]) << 8));
  if (magic != kMagic)
    return DecodeError{DecodeErrorKind::kBadMagic, 0, "magic"};
  if (bytes.size() < 3)
    return DecodeError{DecodeErrorKind::kTruncated, 2, "version"};
  if (bytes[2] != kVersion)
    return DecodeError{DecodeErrorKind::kBadVersion, 2, "version"};
  if (bytes.size() < 4)
    return DecodeError{DecodeErrorKind::kTruncated, 3, "type"};
  if (bytes[3] >= net::kPacketTypeCount)
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 3, "type"};
  const auto type = static_cast<net::PacketType>(bytes[3]);
  if (bytes.size() < 8)
    return DecodeError{DecodeErrorKind::kTruncated, 4, "frame_len"};
  std::uint32_t frame_len = 0;
  for (int i = 0; i < 4; ++i)
    frame_len |= static_cast<std::uint32_t>(bytes[4 + i]) << (8 * i);
  if (frame_len < kHeaderSize || frame_len > kMaxFrameBytes)
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 4, "frame_len"};
  if (bytes.size() < frame_len)
    return DecodeError{DecodeErrorKind::kTruncated, bytes.size(), "frame"};

  // From here every read is bounded by the stated frame length: a frame
  // whose fields need more than frame_len bytes is truncated; one whose
  // fields need fewer has trailing garbage inside the frame.
  Cursor cur(bytes.subspan(kFramePrefixSize, frame_len - kFramePrefixSize),
             kFramePrefixSize);

  net::Packet pkt;
  pkt.type = type;
  pkt.source = cur.i32("source");
  pkt.seq = cur.i64("seq");
  pkt.sender = cur.i32("sender");
  pkt.dest = cur.i32("dest");
  const std::uint32_t payload_len = cur.u32("payload_len");
  if (!cur.ok()) return cur.error();

  if (!valid_node(pkt.source))
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 8, "source"};
  if (type == net::PacketType::kSession) {
    if (pkt.seq != net::kNoSeq)
      return DecodeError{DecodeErrorKind::kFieldOutOfRange, 12, "seq"};
  } else if (pkt.seq < 0 || pkt.seq > kMaxSeqNo) {
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 12, "seq"};
  }
  if (!valid_node(pkt.sender))
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 20, "sender"};
  if (type == net::PacketType::kExpRequest ? !valid_node(pkt.dest)
                                           : pkt.dest != net::kInvalidNode)
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 24, "dest"};
  if (payload_len > kMaxPayloadBytes ||
      (!net::is_payload(type) && payload_len != 0))
    return DecodeError{DecodeErrorKind::kFieldOutOfRange, 28, "payload_len"};
  pkt.size_bytes = static_cast<int>(payload_len);

  switch (type) {
    case net::PacketType::kData:
      break;
    case net::PacketType::kSession: {
      auto session = std::make_shared<net::SessionPayload>();
      const std::int64_t stamp = cur.i64("stamp");
      const std::uint16_t n_streams = cur.u16("n_streams");
      const std::uint16_t n_echoes = cur.u16("n_echoes");
      if (!cur.ok()) return cur.error();
      if (stamp < 0)
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize, "stamp"};
      // The counts are bounded (u16) and checked against the bytes actually
      // present before anything is reserved — a hostile count can cost at
      // most one failed comparison, never an allocation.
      const std::size_t need =
          n_streams * kStreamAdvertSize + n_echoes * kSessionEchoSize;
      if (cur.remaining() < need + payload_len)
        return DecodeError{DecodeErrorKind::kTruncated,
                           kFramePrefixSize + cur.pos() + cur.remaining(),
                           "session_entries"};
      session->stamp = sim::SimTime::nanos(stamp);
      session->streams.reserve(n_streams);
      for (std::uint16_t i = 0; i < n_streams; ++i) {
        net::StreamAdvert a;
        a.source = cur.i32("stream.source");
        a.highest_seq = cur.i64("stream.highest_seq");
        if (!valid_node(a.source))
          return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                             kFramePrefixSize + cur.pos(), "stream.source"};
        if (a.highest_seq < net::kNoSeq || a.highest_seq > kMaxSeqNo)
          return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                             kFramePrefixSize + cur.pos(),
                             "stream.highest_seq"};
        session->streams.push_back(a);
      }
      session->echoes.reserve(n_echoes);
      for (std::uint16_t i = 0; i < n_echoes; ++i) {
        net::SessionEcho e;
        e.peer = cur.i32("echo.peer");
        const std::int64_t peer_stamp = cur.i64("echo.peer_stamp");
        const std::int64_t hold = cur.i64("echo.hold");
        if (!valid_node(e.peer))
          return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                             kFramePrefixSize + cur.pos(), "echo.peer"};
        if (peer_stamp < 0 || hold < 0)
          return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                             kFramePrefixSize + cur.pos(), "echo.times"};
        e.peer_stamp = sim::SimTime::nanos(peer_stamp);
        e.hold = sim::SimTime::nanos(hold);
        session->echoes.push_back(e);
      }
      pkt.session = std::move(session);
      break;
    }
    case net::PacketType::kRequest: {
      pkt.ann.requestor = cur.i32("ann.requestor");
      pkt.ann.dist_requestor_source = cur.f64("ann.dist_requestor_source");
      if (!cur.ok()) break;
      if (!valid_node_or_none(pkt.ann.requestor))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize, "ann.requestor"};
      if (!valid_dist(pkt.ann.dist_requestor_source))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize + 4, "ann.dist_requestor_source"};
      break;
    }
    case net::PacketType::kReply:
    case net::PacketType::kExpRequest:
    case net::PacketType::kExpReply: {
      pkt.ann.requestor = cur.i32("ann.requestor");
      pkt.ann.dist_requestor_source = cur.f64("ann.dist_requestor_source");
      pkt.ann.replier = cur.i32("ann.replier");
      pkt.ann.dist_replier_requestor = cur.f64("ann.dist_replier_requestor");
      pkt.ann.turning_point = cur.i32("ann.turning_point");
      if (!cur.ok()) break;
      if (!valid_node_or_none(pkt.ann.requestor))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize, "ann.requestor"};
      if (!valid_dist(pkt.ann.dist_requestor_source))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize + 4, "ann.dist_requestor_source"};
      if (!valid_node_or_none(pkt.ann.replier))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize + 12, "ann.replier"};
      if (!valid_dist(pkt.ann.dist_replier_requestor))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize + 16, "ann.dist_replier_requestor"};
      if (!valid_node_or_none(pkt.ann.turning_point))
        return DecodeError{DecodeErrorKind::kFieldOutOfRange,
                           kHeaderSize + 24, "ann.turning_point"};
      break;
    }
  }
  cur.zeros(payload_len, "payload");
  if (!cur.ok()) return cur.error();
  if (cur.remaining() != 0)
    return DecodeError{DecodeErrorKind::kTrailingGarbage,
                       kFramePrefixSize + cur.pos(), "frame"};

  if (out) *out = std::move(pkt);
  if (consumed) *consumed = frame_len;
  return std::nullopt;
}

std::optional<DecodeError> decode_packet_exact(
    std::span<const std::uint8_t> bytes, net::Packet* out) {
  std::size_t consumed = 0;
  if (auto err = decode_packet(bytes, out, &consumed)) return err;
  if (consumed < bytes.size())
    return DecodeError{DecodeErrorKind::kTrailingGarbage, consumed, "buffer"};
  return std::nullopt;
}

std::optional<net::NodeId> peek_sender(std::span<const std::uint8_t> datagram) {
  const auto le = [datagram](std::size_t offset, int bytes) {
    std::uint32_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint32_t>(datagram[offset + i]) << (8 * i);
    return v;
  };
  if (datagram.size() < kHeaderSize || le(0, 2) != kMagic ||
      datagram[2] != kVersion || le(4, 4) != datagram.size())
    return std::nullopt;
  return static_cast<net::NodeId>(le(20, 4));
}

bool Decoder::next(net::Packet* out) {
  if (error_ || pos_ >= buf_.size()) return false;
  std::size_t consumed = 0;
  if (auto err = decode_packet(buf_.subspan(pos_), out, &consumed)) {
    err->offset += pos_;
    error_ = err;
    return false;
  }
  pos_ += consumed;
  ++frames_;
  return true;
}

}  // namespace cesrm::wire
