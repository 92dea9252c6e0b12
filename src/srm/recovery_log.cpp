#include "srm/recovery_log.hpp"

#include <algorithm>

namespace cesrm::srm {

namespace {

/// Zigzag of a wrapping 64-bit difference: small magnitudes of either
/// sign become small unsigned values.
std::uint64_t zigzag_delta(std::uint64_t to, std::uint64_t from) {
  const std::uint64_t d = to - from;
  return d << 1 ^ (0 - (d >> 63));
}

std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7)
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

void RecoveryLog::push_back(const RecoveryRecord& rec) {
  using recovery_log_detail::kRoundsEscape;
  const bool infinite = rec.recover_time == sim::SimTime::infinity();
  const bool new_source = rec.source != last_.source;
  const std::uint64_t rounds = zigzag_delta(bits(rec.rounds), 0);
  bytes_.push_back(static_cast<std::uint8_t>(
      unsigned{rec.recovered} | unsigned{rec.expedited} << 1 |
      unsigned{infinite} << 2 | unsigned{new_source} << 3 |
      static_cast<unsigned>(std::min<std::uint64_t>(rounds, kRoundsEscape))
          << 4));
  if (rounds >= kRoundsEscape) put_varint(bytes_, rounds);
  put_varint(bytes_, zigzag_delta(bits(rec.seq), bits(last_.seq)));
  put_varint(bytes_, zigzag_delta(bits(rec.detect_time.ns()),
                                  bits(last_.detect_time.ns())));
  if (!infinite)
    put_varint(bytes_, zigzag_delta(bits(rec.recover_time.ns()),
                                    bits(rec.detect_time.ns())));
  if (new_source)
    put_varint(bytes_, zigzag_delta(bits(rec.source), bits(last_.source)));
  last_ = rec;
  ++count_;
}

}  // namespace cesrm::srm
