// srm_agent.hpp — the Scalable Reliable Multicast protocol agent (§2).
//
// One SrmAgent instance runs at every group member. A member participates
// in any number of concurrent data *streams*, each identified by the
// NodeId of its originating source (the paper presents single-source
// transmissions "for simplicity of the exposition" but specifies
// per-source state throughout). For each stream the agent implements:
//
//  * session message exchange (periodic multicast; distance estimation via
//    DistanceTable; loss detection from advertised per-stream highest
//    sequence numbers);
//  * receiver-based loss detection from sequence-number gaps;
//  * request scheduling with deterministic + probabilistic suppression:
//    a round-k request timer is drawn uniformly from
//    2^k · [C1·d̂hs, (C1+C2)·d̂hs] (d̂hs = distance to the stream's
//    source), backed off when another host's request for the same packet
//    is heard, with back-off abstinence 2^k·C3·d̂hs limiting back-off to
//    once per round;
//  * reply scheduling with suppression: a host holding the packet draws a
//    reply timer from [D1·d̂hh', (D1+D2)·d̂hh'], cancels it when another
//    reply is heard, and observes reply abstinence D3·d̂hh' during which
//    further requests are discarded.
//
// Members can be failed mid-simulation (fail()): a failed member neither
// processes packets nor fires timers — the crash model behind the §3.3
// membership-churn experiments. fail() cancels every pending timer the
// member owns (request, reply, expedited, session), so a crashed member
// leaves no events in the simulator; any callback that nevertheless runs
// on a failed member is counted in HostStats::zombie_timer_fires, which
// the fault oracle asserts to be zero. recover() rejoins a crash-recover
// member with its reception state retained: gap detection against session
// adverts and fresh data then recovers everything missed while down.
//
// CesrmAgent (src/cesrm) derives from this class and adds the expedited
// recovery scheme through the protected virtual hooks; the base class
// implements pure SRM.
//
// Statistics are accumulated in HostStats: per-packet-type send counts and
// one RecoveryRecord per detected loss, from which the harness computes
// every figure of §4.4.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "srm/adaptive.hpp"
#include "srm/config.hpp"
#include "srm/session.hpp"
#include "util/rng.hpp"
#include "wire/layout.hpp"

namespace cesrm::srm {

class DurableSink;

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

/// Per-host protocol statistics (aggregated over all streams).
struct HostStats {
  std::uint64_t data_sent = 0;
  std::uint64_t session_sent = 0;
  std::uint64_t requests_sent = 0;      ///< multicast SRM repair requests
  std::uint64_t replies_sent = 0;       ///< multicast SRM repair replies
  std::uint64_t exp_requests_sent = 0;  ///< unicast expedited requests
  std::uint64_t exp_replies_sent = 0;   ///< expedited replies
  /// Expedited requests cancelled because the packet arrived within
  /// REORDER-DELAY (only possible with a non-zero delay).
  std::uint64_t exp_requests_cancelled = 0;
  std::uint64_t duplicate_replies_received = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t losses_detected = 0;
  /// Losses repaired by a retransmission that arrived *before* this host
  /// had detected the loss (possible when another member's recovery —
  /// especially a CESRM expedited one — outruns gap detection). These
  /// packets never enter the recovery state machine, so they appear in no
  /// RecoveryRecord; losses_detected + repairs_before_detection equals the
  /// number of data packets this host failed to receive originally.
  std::uint64_t repairs_before_detection = 0;
  /// Timer callbacks that ran on a failed member. fail() cancels every
  /// pending timer, so this stays zero unless the cancellation hardening
  /// regresses; the fault oracle checks it.
  std::uint64_t zombie_timer_fires = 0;
  /// Losses whose recovery state was discarded because the member crashed
  /// while they were outstanding (they appear in no RecoveryRecord).
  std::uint64_t losses_abandoned_at_crash = 0;
  /// Wire frames accepted by on_wire() and dispatched into the protocol.
  std::uint64_t wire_packets_decoded = 0;
  /// Wire frames rejected by on_wire(), by decode-error kind. Malformed
  /// input is dropped at ingress — it never reaches protocol state.
  std::array<std::uint64_t, wire::kDecodeErrorKindCount> wire_decode_errors{};
  /// Total frames rejected at ingress (sum of wire_decode_errors).
  std::uint64_t wire_decode_errors_total() const {
    std::uint64_t n = 0;
    for (auto c : wire_decode_errors) n += c;
    return n;
  }
  /// Requestor/replier cache effectiveness (CESRM only; filled by
  /// CesrmAgent::finalize_stats from the per-source caches). Hits are
  /// loss detections for which the cache offered a pair; the remaining
  /// counters mirror cesrm::CacheStats.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_updates = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_rejects = 0;
  /// Retransmissions suppressed by the reply-dedup ledger: this member had
  /// already served the identical ⟨source, seq, requestor⟩ repair before
  /// its crash, and the durable store restored that fact (exactly-once
  /// reply semantics across a crash-restart).
  std::uint64_t retransmissions_suppressed = 0;
  /// Retransmissions re-executed *despite* a matching ledger entry —
  /// non-zero only with reply dedup disabled (the diagnostic mode the
  /// fault oracle's duplicate-retransmission detector flags).
  std::uint64_t duplicate_retransmissions_served = 0;
  std::vector<RecoveryRecord> recoveries;
};

class SrmAgent : public net::Agent {
 public:
  /// `self` must be the root (source) or a leaf (receiver) of the tree.
  /// `primary_source` names the stream the surrounding experiment is
  /// driving (usually the tree root); it seeds the known-stream set so
  /// that losses of the very first packets are detectable. Additional
  /// streams are discovered dynamically from traffic. `rng` seeds this
  /// agent's private timer-jitter stream.
  SrmAgent(sim::Simulator& sim, net::Transport& network, net::NodeId self,
           net::NodeId primary_source, const SrmConfig& config,
           util::Rng rng);
  ~SrmAgent() override;

  /// Begins periodic session-message transmission at now + offset
  /// (staggered offsets avoid synchronized session bursts).
  void start_session(sim::SimTime offset);
  /// Stops the session timer (used to drain the simulation at the end).
  void stop_session();

  /// Originates data packet `seq` on this member's own stream (stream id =
  /// this member's node id). Sequence numbers must be consecutive from 0.
  void send_data(net::SeqNo seq);

  /// Crash-stops this member (§3.3 churn experiments): all subsequent
  /// packets are ignored, every pending timer is cancelled (request,
  /// reply, expedited, session), and the recovery state of outstanding
  /// losses is discarded (counted in losses_abandoned_at_crash).
  /// Reversible only through recover().
  void fail();
  /// Rejoins a crash-recover member: reception state is retained, so gap
  /// detection against session adverts and new data recovers everything
  /// missed while down. The session restarts at now + session_offset.
  void recover(sim::SimTime session_offset = sim::SimTime::zero());
  bool failed() const { return failed_; }

  // --- durable recovery state (src/durable; see srm/durable_sink.hpp) ---
  /// Installs the write-behind sink that journals recovery-state changes
  /// (horizon advances, served replies, cache admissions). Null (the
  /// default) makes every hook a no-op — behavior is then bit-identical
  /// to an agent without durability. Non-owning; must outlive the agent.
  void set_durable_sink(DurableSink* sink) { durable_sink_ = sink; }
  /// Enables/disables the reply-dedup check at the retransmission send
  /// paths. On (the default once a ledger is restored), a repair already
  /// served before the crash is suppressed exactly once; off, it is
  /// re-served and counted in duplicate_retransmissions_served.
  void set_reply_dedup(bool on) { reply_dedup_ = on; }
  /// Discards the volatile recovery state a cold (journal-less) restart
  /// loses: the reply-dedup ledger and every sequence horizon beyond what
  /// the member's stable reception state proves (the highest packet it
  /// actually holds — application data survives a crash, protocol state
  /// does not). Called by the durable manager at crash time; a warm
  /// restart then re-learns the rest from the journal via the restore_*
  /// calls below. Virtual so CESRM can also drop its caches.
  virtual void clear_volatile_recovery_state();
  /// Journal replay (while still failed, before recover()): raises
  /// `source`'s sequence horizon to at least `highest`. Idempotent;
  /// max-merges, so duplicated/reordered journal records are harmless.
  void restore_horizon(net::NodeId source, net::SeqNo highest);
  /// Journal replay: records that this member already served the
  /// ⟨source, seq, requestor⟩ retransmission before its crash.
  void restore_served(net::NodeId source, net::SeqNo seq,
                      net::NodeId requestor);
  /// Restored-but-not-yet-consumed reply-dedup ledger entries.
  std::size_t served_ledger_size() const { return restored_served_.size(); }

  // net::Agent
  void on_packet(const net::Packet& pkt) override;

  /// Hardened wire-format ingress: decodes exactly one frame from `bytes`
  /// and dispatches it through on_packet(). Malformed input of any kind —
  /// truncation, bad magic/version, out-of-range fields, trailing bytes —
  /// is counted in HostStats::wire_decode_errors, reported as an
  /// obs::EventKind::kDecodeError trace event (detail = the error kind),
  /// and dropped without touching any protocol state. Returns true when
  /// the frame was accepted.
  bool on_wire(std::span<const std::uint8_t> bytes) override;

  net::NodeId node() const { return self_; }
  net::NodeId primary_source() const { return primary_source_; }
  /// The transport this member sends over (and reads path delays from).
  const net::Transport& transport() const { return net_; }
  /// True when this member originates `source`'s stream.
  bool originates(net::NodeId source) const { return source == self_; }

  /// True when this member holds packet `seq` of `source`'s stream (sent,
  /// received, or recovered).
  bool has_packet(net::NodeId source, net::SeqNo seq) const;
  /// Single-argument overload for the primary stream.
  bool has_packet(net::SeqNo seq) const {
    return has_packet(primary_source_, seq);
  }
  /// Highest sequence number known to exist on `source`'s stream
  /// (kNoSeq when the stream is unknown).
  net::SeqNo highest_seq(net::NodeId source) const;
  net::SeqNo highest_seq() const { return highest_seq(primary_source_); }

  /// Streams this member currently knows about, in id order.
  std::vector<net::NodeId> known_streams() const;

  const HostStats& stats() const { return stats_; }
  const DistanceTable& distances() const { return dist_; }
  DistanceTable& distances() { return dist_; }

  /// One-way distance estimate to `peer` in seconds. In oracle mode this
  /// is the true tree-path delay; otherwise the session estimate (falling
  /// back to the true delay until the first estimate arrives, mirroring
  /// the paper's "distances are accurate before transmission" warm-up).
  double distance_to(net::NodeId peer) const;

  /// Losses detected but not yet recovered, over all streams.
  std::size_t outstanding_losses() const;

  /// Known-missing packets still queued for paced re-detection after a
  /// recover() (zero whenever the member is fully caught up).
  std::size_t catch_up_pending() const {
    return catch_up_queue_.size() - catch_up_next_;
  }

  /// Outstanding losses whose request timer is not armed. The SRM request
  /// state machine keeps exactly one armed request timer per outstanding
  /// loss (it re-arms on every expiry), so a non-zero count means recovery
  /// of those packets can never make progress again — the stall condition
  /// the fault oracle's liveness watchdog checks for.
  std::size_t stalled_losses() const;

  /// Adaptive-timer controllers (null when adaptive_timers is off).
  const AdaptiveController* request_controller() const {
    return req_ctrl_.get();
  }
  const AdaptiveController* reply_controller() const {
    return rep_ctrl_.get();
  }

  /// Appends a RecoveryRecord (recovered = false) for every loss still
  /// outstanding; call once when the simulation is drained so unrecovered
  /// losses appear in the statistics. Virtual so derived protocols can
  /// fold their own aggregates (CESRM: cache counters) into HostStats.
  virtual void finalize_stats();

 protected:
  /// Request-side state for a packet this member lost.
  struct WantState {
    net::NodeId source = net::kInvalidNode;
    net::SeqNo seq = net::kNoSeq;
    int backoff = 0;  ///< k: times a request has been scheduled
    std::unique_ptr<sim::Timer> request_timer;
    sim::SimTime abstinence_until = sim::SimTime::zero();
    sim::SimTime detect_time;
    bool recovered = false;
    // --- adaptive-timer bookkeeping (Floyd et al. §V) ---
    int requests_seen = 0;  ///< own + foreign requests during this episode
    sim::SimTime first_own_request = sim::SimTime::infinity();
    // --- CESRM expedited-recovery extension state ---
    std::unique_ptr<sim::Timer> exp_timer;
    net::NodeId exp_replier = net::kInvalidNode;
    net::RecoveryAnnotation exp_ann;
  };

  /// Reply-side state for a packet this member holds.
  struct ReplyState {
    std::unique_ptr<sim::Timer> reply_timer;
    bool scheduled = false;
    net::NodeId requestor = net::kInvalidNode;
    double requestor_dist_to_src = 0.0;
    sim::SimTime abstinence_until = sim::SimTime::zero();
    sim::SimTime request_arrival;  ///< adaptive: when the reply was sched.
  };

  /// Per-stream protocol state.
  struct StreamState {
    net::NodeId source = net::kInvalidNode;
    std::vector<bool> received;             ///< indexed by seq (receivers)
    net::SeqNo highest_seq = net::kNoSeq;   ///< highest known-to-exist seq
    net::SeqNo last_sent = net::kNoSeq;     ///< originator only
    std::unordered_map<net::SeqNo, std::unique_ptr<WantState>> want;
    std::unordered_map<net::SeqNo, std::unique_ptr<ReplyState>> reply;
  };

  // --- hooks overridden by CesrmAgent ---
  /// Called once when a new loss is detected (state freshly created).
  virtual void on_loss_detected(WantState& want);
  /// Called for every received repair reply (normal or expedited), before
  /// generic processing. CESRM updates its requestor/replier cache here.
  virtual void on_reply_observed(const net::Packet& pkt);
  /// Called when a unicast expedited request arrives (CESRM only).
  virtual void on_exp_request(const net::Packet& pkt);
  /// Called when packet (`source`, `seq`) becomes locally available.
  virtual void on_packet_available(net::NodeId source, net::SeqNo seq);

  // --- shared machinery the subclass reuses ---
  StreamState& stream(net::NodeId source);
  const StreamState* find_stream(net::NodeId source) const;

  /// Detects the loss of (`source`, `seq`) if it is news; returns the
  /// state (or null if the packet is already held). `suppressed` marks
  /// detection caused by hearing another host's request: the first own
  /// request is then scheduled at back-off round 1, as if suppressed.
  WantState* detect_loss(net::NodeId source, net::SeqNo seq,
                         bool suppressed);
  /// Draws a round-k request timeout 2^k·U[C1·d̂hs, (C1+C2)·d̂hs].
  sim::SimTime draw_request_delay(net::NodeId source, int k);
  void request_timer_fired(net::NodeId source, net::SeqNo seq);
  void backoff_request(WantState& want);
  void handle_request(const net::Packet& pkt);
  void handle_reply(const net::Packet& pkt);
  void reply_timer_fired(net::NodeId source, net::SeqNo seq);
  void session_timer_fired();
  /// Releases the next kCatchUpBatch queued re-detections and re-arms
  /// the catch-up timer while any remain (see srm/config.hpp).
  void release_catch_up_batch();
  /// Everything up to `seq` exists on `source`'s stream: detect any gap.
  void note_new_sequence(net::NodeId source, net::SeqNo seq);
  void mark_received(const net::Packet& via);

  ReplyState& reply_state(net::NodeId source, net::SeqNo seq);

  /// Consults the restored reply-dedup ledger before a retransmission of
  /// (`source`, `seq`) to `requestor` goes out. Returns true when the
  /// send must be suppressed (exactly-once: the entry is consumed, the
  /// suppression counted and traced). With dedup off, returns false and
  /// counts the duplicate instead — the oracle's true-positive signal.
  bool note_already_served(net::NodeId source, net::SeqNo seq,
                           net::NodeId requestor, bool expedited);

  sim::Simulator& sim_;
  net::Transport& net_;
  const net::NodeId self_;
  const net::NodeId primary_source_;
  SrmConfig config_;
  util::Rng rng_;
  DistanceTable dist_;
  HostStats stats_;
  bool failed_ = false;

  std::map<net::NodeId, StreamState> streams_;  ///< keyed by source id
  std::unique_ptr<sim::Timer> session_timer_;
  /// Paced crash-recovery catch-up: missing packets queued at recover(),
  /// consumed front-to-back by release_catch_up_batch().
  std::vector<std::pair<net::NodeId, net::SeqNo>> catch_up_queue_;
  std::size_t catch_up_next_ = 0;
  std::unique_ptr<sim::Timer> catch_up_timer_;
  /// Set by recover(): the next sequence-horizon advance is the bulk gap
  /// of everything missed while down and is paced, not detected at once.
  bool resync_pending_ = false;
  std::unique_ptr<AdaptiveController> req_ctrl_;  ///< adaptive C1/C2
  std::unique_ptr<AdaptiveController> rep_ctrl_;  ///< adaptive D1/D2
  /// Durable-state sink (null = durability off, hooks are no-ops).
  DurableSink* durable_sink_ = nullptr;
  /// Reply-dedup ledger restored by journal replay: retransmissions this
  /// member provably served before its crash, keyed ⟨source, seq,
  /// requestor⟩. Ordered set: replay order must not depend on hashing.
  std::set<std::tuple<net::NodeId, net::SeqNo, net::NodeId>> restored_served_;
  bool reply_dedup_ = true;
};

}  // namespace cesrm::srm
