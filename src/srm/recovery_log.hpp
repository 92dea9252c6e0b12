// recovery_log.hpp — one member's recovery records, stored compactly.
//
// Every figure of §4.4 folds per-recovery outcomes into a few sums, yet a
// result keeps one RecoveryRecord per detected loss: the 28 outcomes of a
// full Table-1 SRM + CESRM sweep hold about 785 000 of them. A
// RecoveryLog keeps the same records, in push order, as delta-varint
// bytes (about 10 B per record in place of 40) and hands each one back by
// value when iterated, so every consumer's range-for sees the same records
// in the same order and every sum over them is unchanged.
//
// Each record is encoded against the one pushed before it (a
// default-constructed RecoveryRecord before the first):
//   header byte   bit 0 `recovered`, bit 1 `expedited`, bit 2
//                 `recover_time == SimTime::infinity()`, bit 3 `source`
//                 differs from the previous record's, bits 4–7
//                 zigzag(`rounds`), where 15 is an escape: the zigzag
//                 value follows as a varint;
//   varints       LEB128 of zigzag deltas, computed in wrapping 64-bit
//                 arithmetic so that any int64 round-trips: seq − previous
//                 seq; detect_time − previous detect_time; recover_time −
//                 detect_time (left out when infinite); source − previous
//                 source (only when bit 3 is set).
// The encoding is canonical, so two logs hold the same records exactly
// when their bytes are equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace cesrm::srm {

/// Outcome of one loss-recovery episode at one receiver.
struct RecoveryRecord {
  net::NodeId source = net::kInvalidNode;  ///< stream the packet belongs to
  net::SeqNo seq = net::kNoSeq;
  sim::SimTime detect_time;
  sim::SimTime recover_time;
  bool recovered = false;
  /// True when the packet was recovered by a CESRM expedited reply.
  bool expedited = false;
  /// Request back-off rounds used before recovery.
  int rounds = 0;
  /// Recovery latency in seconds (valid when recovered).
  double latency_seconds() const {
    return (recover_time - detect_time).to_seconds();
  }
};

class RecoveryLog {
 public:
  /// Decodes one record per step; operator* yields it by value.
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = RecoveryRecord;
    using difference_type = std::ptrdiff_t;
    using reference = RecoveryRecord;

    const_iterator() = default;
    RecoveryRecord operator*() const { return rec_; }
    const_iterator& operator++() {
      pos_ = next_;
      if (pos_ != end_) decode();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    friend class RecoveryLog;
    const_iterator(const std::uint8_t* pos, const std::uint8_t* end)
        : pos_(pos), next_(pos), end_(end) {
      if (pos_ != end_) decode();
    }
    /// Replaces rec_ (the base of the deltas) with the record at pos_.
    void decode();
    std::uint64_t read_varint();

    const std::uint8_t* pos_ = nullptr;   ///< first byte of rec_
    const std::uint8_t* next_ = nullptr;  ///< first byte after rec_
    const std::uint8_t* end_ = nullptr;
    RecoveryRecord rec_;
  };

  void push_back(const RecoveryRecord& rec);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Encoded size; the records take this many bytes of the log's buffer.
  std::size_t bytes() const { return bytes_.size(); }

  const_iterator begin() const {
    return {bytes_.data(), bytes_.data() + bytes_.size()};
  }
  const_iterator end() const {
    const std::uint8_t* e = bytes_.data() + bytes_.size();
    return {e, e};
  }

  /// Same records in the same order (the encoding is canonical).
  friend bool operator==(const RecoveryLog& a, const RecoveryLog& b) {
    return a.count_ == b.count_ && a.bytes_ == b.bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t count_ = 0;
  RecoveryRecord last_;  ///< base of the next push's deltas
};

namespace recovery_log_detail {

inline constexpr unsigned kRoundsEscape = 15;

inline std::uint64_t unzigzag(std::uint64_t z) {
  return z >> 1 ^ (0 - (z & 1));
}

}  // namespace recovery_log_detail

inline std::uint64_t RecoveryLog::const_iterator::read_varint() {
  const std::uint8_t* p = next_;
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint64_t b = *p++;
    v |= (b & 0x7f) << shift;
    if (b < 0x80) break;
  }
  next_ = p;
  return v;
}

inline void RecoveryLog::const_iterator::decode() {
  using recovery_log_detail::kRoundsEscape;
  using recovery_log_detail::unzigzag;
  const unsigned header = *pos_;
  next_ = pos_ + 1;
  rec_.recovered = (header & 1) != 0;
  rec_.expedited = (header & 2) != 0;
  std::uint64_t rounds = header >> 4;
  if (rounds == kRoundsEscape) rounds = read_varint();
  rec_.rounds = static_cast<int>(static_cast<std::int64_t>(unzigzag(rounds)));
  rec_.seq = static_cast<net::SeqNo>(static_cast<std::uint64_t>(rec_.seq) +
                                     unzigzag(read_varint()));
  const std::uint64_t detect =
      static_cast<std::uint64_t>(rec_.detect_time.ns()) +
      unzigzag(read_varint());
  rec_.detect_time = sim::SimTime::nanos(static_cast<std::int64_t>(detect));
  rec_.recover_time =
      (header & 4) != 0
          ? sim::SimTime::infinity()
          : sim::SimTime::nanos(
                static_cast<std::int64_t>(detect + unzigzag(read_varint())));
  if ((header & 8) != 0)
    rec_.source = static_cast<net::NodeId>(
        static_cast<std::int64_t>(rec_.source) +
        static_cast<std::int64_t>(unzigzag(read_varint())));
}

}  // namespace cesrm::srm
