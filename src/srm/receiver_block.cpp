#include "srm/receiver_block.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "srm/config.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::srm {
namespace {

// Distinct odd multipliers decorrelate the hash-stream dimensions.
constexpr std::uint64_t kMemberSalt = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSeqSalt = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kUseSalt = 0x165667B19E3779F9ULL;
constexpr int kMaxBackoff = 5;
/// How long a gap waits for reordered data before it counts as a loss.
constexpr sim::SimTime kReorderGuard = sim::SimTime::millis(10);

}  // namespace

ReceiverBlock::ReceiverBlock(sim::Simulator& sim, net::Network& network,
                             net::NodeId node, net::NodeId source,
                             ReceiverBlockConfig config, std::uint64_t seed)
    : sim_(sim),
      network_(network),
      node_(node),
      source_(source),
      config_(config),
      seed_(seed),
      rtt_(network.path_delay(node, source) * std::int64_t{2}),
      base_(config.members, 0),
      bits_(config.members, 0) {
  CESRM_CHECK_MSG(config_.members > 0, "a receiver block hosts >= 1 member");
  CESRM_CHECK_MSG(config_.member_loss >= 0.0 && config_.member_loss < 1.0,
                  "member loss probability in [0, 1)");
  network_.attach(node_, this);
}

double ReceiverBlock::hash_uniform(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c) const {
  std::uint64_t x =
      seed_ ^ (a * kMemberSalt) ^ (b * kSeqSalt) ^ (c * kUseSalt);
  return static_cast<double>(util::splitmix64(x) >> 11) * 0x1.0p-53;
}

bool ReceiverBlock::member_lost(std::uint32_t member, net::SeqNo seq) const {
  return hash_uniform(member, static_cast<std::uint64_t>(seq), 1) <
         config_.member_loss;
}

void ReceiverBlock::on_packet(const net::Packet& pkt) {
  if (pkt.source != source_) return;
  switch (pkt.type) {
    case net::PacketType::kData:
      on_data(pkt.seq);
      break;
    case net::PacketType::kReply:
    case net::PacketType::kExpReply:
      on_repair_data(pkt.seq);
      break;
    default:
      break;  // requests/sessions from peers need no block action
  }
}

void ReceiverBlock::on_data(net::SeqNo seq) {
  std::uint64_t lost = 0;
  for (std::uint32_t m = 0; m < config_.members; ++m) {
    if (member_lost(m, seq)) {
      ++lost;
      continue;  // the unset bit below base+64 is the loss record
    }
    if (!deliver(m, seq)) ++duplicate_data_;
  }
  if (lost == 0) return;
  losses_ += lost;
  // All of the block's losers notice the gap together once the reorder
  // guard passes (co-located members share the next in-order arrival).
  sim_.schedule_in(kReorderGuard, [this, seq] { detect_gap(seq); });
}

bool ReceiverBlock::deliver(std::uint32_t member, net::SeqNo seq) {
  const net::SeqNo base = base_[member];
  if (seq < base) return false;  // already resolved (duplicate)
  if (seq - base >= 64) {
    // The tracking window is full: the oldest unresolved seqs are being
    // starved of repairs. Force the window forward and account the
    // casualties — the scale bench gates this counter at zero.
    const net::SeqNo shift = seq - base - 63;
    window_overflows_ +=
        static_cast<std::uint64_t>(shift) -
        static_cast<std::uint64_t>(std::popcount(
            bits_[member] & ((shift >= 64) ? ~0ULL
                                           : ((1ULL << shift) - 1))));
    bits_[member] = shift >= 64 ? 0 : bits_[member] >> shift;
    base_[member] += shift;
  }
  const std::uint64_t bit = 1ULL << (seq - base_[member]);
  if (bits_[member] & bit) return false;
  bits_[member] |= bit;
  advance(member);
  return true;
}

void ReceiverBlock::advance(std::uint32_t member) {
  while (bits_[member] & 1ULL) {
    bits_[member] >>= 1;
    ++base_[member];
  }
}

void ReceiverBlock::detect_gap(net::SeqNo seq) {
  for (const Repair& r : repairs_)
    if (r.seq == seq) return;  // already outstanding
  Repair r;
  r.seq = seq;
  r.detect_at = sim_.now();
  schedule_request(r);
  repairs_.push_back(r);
}

void ReceiverBlock::schedule_request(Repair& r) {
  sim::SimTime delay;
  if (config_.expedited && cache_warm_ && r.rounds == 0) {
    // Cached requestor/replier pair: the first attempt skips the SRM
    // backoff lottery and goes straight to the replier after the reorder
    // guard (§3.1's edge). One shot only — retries rejoin the backoff
    // schedule, because retrying faster than the reply RTT just floods
    // the replier's downlink with duplicate repairs.
    delay = kReorderGuard;
  } else {
    const double d = rtt_.to_seconds();
    const double jitter =
        kC1 * d +
        kC2 * d *
            hash_uniform(static_cast<std::uint64_t>(r.seq), r.rounds, 2);
    delay = sim::SimTime::from_seconds(
        std::ldexp(jitter, std::min(r.rounds, kMaxBackoff)));
  }
  r.timer = sim_.schedule_in(delay, [this, seq = r.seq] {
    request_fired(seq);
  });
}

void ReceiverBlock::request_fired(net::SeqNo seq) {
  for (Repair& r : repairs_) {
    if (r.seq != seq) continue;
    ++requests_sent_;
    const bool expedite = config_.expedited && cache_warm_ && r.rounds == 0;
    ++r.rounds;
    if (expedite) {
      net::RecoveryAnnotation ann;
      ann.requestor = node_;
      ann.dist_requestor_source = network_.path_delay(node_, source_)
                                      .to_seconds();
      network_.unicast(node_, net::make_exp_request_packet(
                                  node_, source_, source_, seq, ann));
    } else {
      network_.multicast(node_, net::make_request_packet(
                                    node_, source_, seq,
                                    network_.path_delay(node_, source_)
                                        .to_seconds()));
    }
    schedule_request(r);  // retry unless a repair lands first
    return;
  }
}

void ReceiverBlock::on_repair_data(net::SeqNo seq) {
  const auto it = std::find_if(repairs_.begin(), repairs_.end(),
                               [seq](const Repair& r) { return r.seq == seq; });
  const bool pending = it != repairs_.end();
  const sim::SimTime detect_at = pending ? it->detect_at : sim_.now();
  std::uint64_t healed = 0;
  for (std::uint32_t m = 0; m < config_.members; ++m)
    if (deliver(m, seq)) ++healed;
  if (!pending) return;
  recovered_ += healed;
  for (std::uint64_t i = 0; i < healed; ++i)
    latency_.add((sim_.now() - detect_at).ns());
  sim_.cancel(it->timer);
  repairs_.erase(it);
  cache_warm_ = true;
}

std::uint64_t ReceiverBlock::outstanding() const {
  std::uint64_t n = 0;
  for (const Repair& r : repairs_)
    for (std::uint32_t m = 0; m < config_.members; ++m)
      if (base_[m] <= r.seq && r.seq - base_[m] < 64 &&
          !(bits_[m] & (1ULL << (r.seq - base_[m]))))
        ++n;
  return n;
}

SessionSummary ReceiverBlock::summary() const {
  SessionSummary s;
  s.members = config_.members;
  s.outstanding = outstanding();
  s.rtt_max_ns = rtt_.ns();
  s.rtt_sum_ns = rtt_.ns() * static_cast<std::int64_t>(config_.members);
  for (std::uint32_t m = 0; m < config_.members; ++m) {
    const auto h = static_cast<std::uint64_t>(base_[m]);
    s.min_horizon = std::min(s.min_horizon, h);
    s.max_horizon = std::max(s.max_horizon, h);
  }
  return s;
}

std::size_t ReceiverBlock::state_bytes() const {
  return base_.capacity() * sizeof(base_[0]) +
         bits_.capacity() * sizeof(bits_[0]);
}

}  // namespace cesrm::srm
