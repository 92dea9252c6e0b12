// codec.hpp — binary encoder/decoder for every protocol PDU.
//
// The simulator exchanges in-memory net::Packet structs whose sizes are
// *configured* (1 KB payload / 0-byte control, the paper's ns-2 setup);
// this codec gives each PDU a real, versioned little-endian frame (see
// layout.hpp) so the repo can account for what SRM/CESRM control traffic
// actually costs on a wire, and so ingress can be hardened against
// malformed bytes. Design rules:
//
//  * canonical: a Packet has exactly one encoding, and every frame the
//    decoder accepts re-encodes to the identical bytes — the property the
//    wire test suite and the mutation fuzzer enforce
//    (decode(encode(p)) == p and encode(decode(b)) == b);
//  * total: decoding never throws, never reads out of bounds, and never
//    allocates proportionally to attacker-controlled counts before
//    validating them; every rejection carries a DecodeErrorKind, the byte
//    offset, and the field name;
//  * zero-copy: the Decoder walks a caller-owned byte span with a bounded
//    cursor; only the SESSION entry vectors allocate, after their counts
//    are validated against the frame length.
//
// LMS rides on the EXP-REQUEST / EXP-REPLY frames (its directed requests
// and subcast replies reuse those PacketTypes), so the six frame kinds
// cover every message of SRM, CESRM, and the LMS baseline.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "wire/layout.hpp"

namespace cesrm::wire {

/// One decode rejection: what, where, and which field.
struct DecodeError {
  DecodeErrorKind kind = DecodeErrorKind::kTruncated;
  std::size_t offset = 0;      ///< byte offset into the decoded buffer
  const char* field = "";      ///< name of the offending field
};

/// Appends the canonical encoding of `pkt` to `out`. The packet must obey
/// the protocol construction invariants (session payload present exactly
/// for SESSION frames, annotation defaulted on DATA/SESSION); the
/// convenience constructors in net/packet.hpp always do.
void encode_packet(const net::Packet& pkt, std::vector<std::uint8_t>* out);

/// The canonical encoding of `pkt` as a fresh buffer.
std::vector<std::uint8_t> encode_packet(const net::Packet& pkt);

/// Decodes exactly one frame from the start of `bytes`. On success fills
/// `*out`, sets `*consumed` (if non-null) to the frame length, and returns
/// nullopt. On failure returns the error; `*out` is unspecified.
std::optional<DecodeError> decode_packet(std::span<const std::uint8_t> bytes,
                                         net::Packet* out,
                                         std::size_t* consumed = nullptr);

/// Whole-buffer variant for datagram ingress: the buffer must contain one
/// frame and nothing else (extra bytes → kTrailingGarbage).
std::optional<DecodeError> decode_packet_exact(
    std::span<const std::uint8_t> bytes, net::Packet* out);

/// The sender field (offset 20) of a datagram whose fixed header is that
/// of one whole v1 frame: at least kHeaderSize bytes, kMagic, kVersion
/// and a frame_len equal to the datagram's size. Nothing past the header
/// is read, so a datagram that passes may still fail decode_packet_exact;
/// every datagram that function accepts passes, with the sender it
/// decodes. nullopt for any other datagram.
std::optional<net::NodeId> peek_sender(std::span<const std::uint8_t> datagram);

/// Streaming encoder with exact per-PDU byte accounting: every add() is
/// tallied per PacketType, so callers can report where the wire bytes go.
class Encoder {
 public:
  /// Appends `pkt`'s frame to the buffer; returns its size in bytes.
  std::size_t add(const net::Packet& pkt);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  std::uint64_t count_of(net::PacketType t) const {
    return counts_[static_cast<std::size_t>(t)];
  }
  std::uint64_t bytes_of(net::PacketType t) const {
    return bytes_[static_cast<std::size_t>(t)];
  }
  std::uint64_t total_count() const;
  std::uint64_t total_bytes() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::array<std::uint64_t, net::kPacketTypeCount> counts_{};
  std::array<std::uint64_t, net::kPacketTypeCount> bytes_{};
};

/// Streaming decoder over a buffer of back-to-back frames (a binary trace
/// file, a fuzzer input). Bounds-checked and zero-copy: the span must
/// outlive the decoder.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> bytes) : buf_(bytes) {}

  /// Decodes the next frame into `*out`. Returns false at the clean end of
  /// the buffer or on a malformed frame — check error() to distinguish.
  /// After an error the decoder stays stopped (frames are not resynced).
  bool next(net::Packet* out);

  /// Set when next() returned false because of a malformed frame; offsets
  /// are absolute within the constructed span.
  const std::optional<DecodeError>& error() const { return error_; }

  /// True when every byte was consumed by well-formed frames.
  bool at_end() const { return pos_ == buf_.size() && !error_; }
  std::size_t offset() const { return pos_; }
  std::size_t frames_decoded() const { return frames_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t frames_ = 0;
  std::optional<DecodeError> error_;
};

}  // namespace cesrm::wire
