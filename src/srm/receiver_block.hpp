// receiver_block.hpp — struct-of-arrays receiver populations for the
// million-receiver scale path.
//
// A full SrmAgent costs kilobytes per member (per-stream maps, timer
// wheels, an Rng, recovery records) — fine for Table-1 topologies,
// hopeless at 10⁶ receivers. A ReceiverBlock attaches ONE net::Agent at a
// leaf and hosts F members in flat parallel arrays:
//
//  * per-member state is two machine words — `base_` (lowest unresolved
//    data seq) and `bits_` (a 64-packet reception bitmap above it) — plus
//    amortized shares of the block counters: ≤ 24 bytes/receiver, measured
//    by state_bytes() and gated by the scale bench;
//  * randomness is a stateless splitmix64 hash of ⟨block seed, member,
//    seq⟩, so members lose independently without per-member generator
//    state and identically for any shard count or replay;
//  * loss recovery is SRM-shaped but block-suppressed: the block detects a
//    gap when a later seq arrives, schedules ONE repair request for the
//    whole block with the minimum member jitter (exactly the suppression a
//    co-located SRM crowd converges to), backs off exponentially, and on
//    the retransmission marks every pending member recovered, folding each
//    member's detect→recover latency into a log-bucketed histogram;
//  * the expedited flavour models CESRM's cached requestor/replier pairs:
//    once a block has recovered a loss the cached pair short-circuits the
//    request jitter for subsequent losses (requests go out after only the
//    reorder guard), which is precisely the latency edge §3 claims;
//  * session state leaves the block pre-aggregated: summary() folds the F
//    members into one SessionSummary (srm/session_aggregate.hpp), so
//    session traffic costs one packet per block per period, not one per
//    member.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "obs/sketch.hpp"
#include "sim/simulator.hpp"
#include "srm/session_aggregate.hpp"

namespace cesrm::srm {

struct ReceiverBlockConfig {
  std::uint32_t members = 64;  ///< F members hosted behind this leaf
  /// Independent per-member last-hop loss probability (analytic thinning
  /// of delivered data packets; the shared tree above the leaf is modeled
  /// by the Network as usual).
  double member_loss = 0.01;
  /// CESRM mode: after the first recovery the cached pair expedites every
  /// later request (no SRM backoff wait). SRM mode ignores the cache.
  /// Either way a request waits uniform [C1, C1+C2] · rtt (srm::kC1,
  /// srm::kC2), doubled per backoff round.
  bool expedited = false;
};

class ReceiverBlock : public net::Agent {
 public:
  /// `node` must be a leaf of the network's tree; `seed` makes the block's
  /// hash stream unique and reproducible.
  ReceiverBlock(sim::Simulator& sim, net::Network& network, net::NodeId node,
                net::NodeId source, ReceiverBlockConfig config,
                std::uint64_t seed);

  void on_packet(const net::Packet& pkt) override;

  net::NodeId node() const { return node_; }

  /// Pre-aggregated session state of the F members (one fold per call —
  /// the caller sends it upstream as a single session packet).
  SessionSummary summary() const;

  // --- outcome accounting (over all members) ---
  std::uint64_t losses() const { return losses_; }
  std::uint64_t recovered() const { return recovered_; }
  std::uint64_t outstanding() const;
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t duplicate_data() const { return duplicate_data_; }
  /// Member-losses that fell off the 64-packet tracking window before a
  /// repair arrived (a liveness failure; the scale bench gates it at 0).
  std::uint64_t window_overflows() const { return window_overflows_; }
  /// Per-member detect→recover latencies (ns), log-bucketed.
  const obs::LogHistogram& recovery_latency() const { return latency_; }

  /// Bytes of member-proportional state (the SoA arrays; excludes the
  /// fixed per-block footprint) — the scale bench divides by F to report
  /// bytes/receiver.
  std::size_t state_bytes() const;

 private:
  struct Repair {  ///< one outstanding block-level repair request
    net::SeqNo seq = net::kNoSeq;
    sim::SimTime detect_at;
    int rounds = 0;
    sim::EventId timer{};
  };

  bool member_lost(std::uint32_t member, net::SeqNo seq) const;
  void on_data(net::SeqNo seq);
  void on_repair_data(net::SeqNo seq);
  /// Delivers seq to one member's window; returns true if it was pending.
  bool deliver(std::uint32_t member, net::SeqNo seq);
  void advance(std::uint32_t member);
  void detect_gap(net::SeqNo seq);
  void schedule_request(Repair& r);
  void request_fired(net::SeqNo seq);
  /// Stateless uniform double in [0, 1) from the block's hash stream.
  double hash_uniform(std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) const;

  sim::Simulator& sim_;
  net::Network& network_;
  const net::NodeId node_;
  const net::NodeId source_;
  const ReceiverBlockConfig config_;
  const std::uint64_t seed_;
  const sim::SimTime rtt_;  ///< true RTT to the source (oracle distance)

  // --- struct-of-arrays member state (all sized config_.members) ---
  std::vector<net::SeqNo> base_;       ///< lowest unresolved seq
  std::vector<std::uint64_t> bits_;    ///< received bitmap over [base, base+64)

  std::vector<Repair> repairs_;  ///< outstanding block-level requests
  obs::LogHistogram latency_;
  std::uint64_t losses_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t duplicate_data_ = 0;
  std::uint64_t window_overflows_ = 0;
  bool cache_warm_ = false;  ///< CESRM: a recovered pair is cached
};

}  // namespace cesrm::srm
