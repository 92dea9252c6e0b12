#include "srm/srm_agent.hpp"

#include <algorithm>

#include "obs/trace_recorder.hpp"
#include "srm/durable_sink.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "wire/codec.hpp"

namespace cesrm::srm {

SrmAgent::SrmAgent(sim::Simulator& sim, net::Transport& network,
                   net::NodeId self, net::NodeId primary_source,
                   const SrmConfig& config, util::Rng rng)
    : sim_(sim),
      net_(network),
      self_(self),
      primary_source_(primary_source),
      config_(config),
      rng_(rng),
      dist_(self) {
  if (config_.adaptive_timers) {
    req_ctrl_ = std::make_unique<AdaptiveController>(config_.c1, config_.c2);
    AdaptiveTuning reply_tuning;
    // Reply duplicates are observed per reply event ("was this reply a
    // duplicate of a pending one?"), so the target is a fraction.
    reply_tuning.dup_target = 0.25;
    rep_ctrl_ = std::make_unique<AdaptiveController>(config_.d1, config_.d2,
                                                     reply_tuning);
  }
  net_.attach(self_, this);
  // Seed the primary stream so losses of its very first packets are
  // detectable (every member knows the transmission exists before it
  // starts — the paper's warm-up assumption).
  stream(primary_source_);
}

SrmAgent::~SrmAgent() = default;

void SrmAgent::start_session(sim::SimTime offset) {
  if (failed_) return;
  if (!session_timer_) {
    session_timer_ =
        std::make_unique<sim::Timer>(sim_, [this] { session_timer_fired(); });
  }
  session_timer_->arm(offset);
}

void SrmAgent::stop_session() {
  if (session_timer_) session_timer_->cancel();
}

void SrmAgent::fail() {
  failed_ = true;
  // Cancel every pending event this member owns so a crashed member is
  // truly inert: no request/reply/expedited timer survives (their Timers
  // are destroyed with the per-packet state), and the session timer is
  // permanently disabled against accidental re-arming.
  if (session_timer_) session_timer_->disable();
  if (catch_up_timer_) catch_up_timer_->disable();
  catch_up_queue_.clear();
  catch_up_next_ = 0;
  for (auto& [source, s] : streams_) {
    stats_.losses_abandoned_at_crash += s.want.size();
    s.want.clear();   // request + expedited timers cancel via destructors
    s.reply.clear();  // reply timers likewise
  }
}

void SrmAgent::recover(sim::SimTime session_offset) {
  CESRM_CHECK_MSG(failed_, "recover() on a live member");
  failed_ = false;
  // The crash disabled the timers for good; start fresh ones.
  session_timer_.reset();
  catch_up_timer_.reset();
  start_session(session_offset);
  // Queue every known-missing packet for re-detection. Ordinary gap
  // detection only looks above highest_seq, so packets whose recovery was
  // in flight at crash time (fail() discarded their want state) would
  // otherwise sit in a permanent blind spot below the horizon the member
  // already knew. The queue is released in paced batches rather than
  // detected here all at once — see kCatchUpBatch.
  for (auto& [source, s] : streams_) {
    if (originates(source)) continue;
    for (net::SeqNo seq = 0; seq <= s.highest_seq; ++seq)
      if (!has_packet(source, seq)) catch_up_queue_.emplace_back(source, seq);
  }
  // The packets missed *while* down sit above highest_seq and surface on
  // the first post-recovery data arrival or session advert; flag the next
  // horizon advance so note_new_sequence paces that bulk gap too.
  resync_pending_ = true;
  if (!catch_up_queue_.empty()) release_catch_up_batch();
}

void SrmAgent::clear_volatile_recovery_state() {
  restored_served_.clear();
  // Cold-restart horizon semantics: a journal-less process knows on
  // restart only what its stable reception state proves — the highest
  // packet it actually holds. Everything above that is volatile protocol
  // knowledge, re-learned from session adverts after rejoining (which is
  // exactly the latency a warm restore avoids).
  for (auto& [source, s] : streams_) {
    if (originates(source)) continue;
    net::SeqNo held = net::kNoSeq;
    for (std::size_t i = s.received.size(); i-- > 0;) {
      if (s.received[i]) {
        held = static_cast<net::SeqNo>(i);
        break;
      }
    }
    s.highest_seq = held;
    s.received.resize(held < 0 ? 0 : static_cast<std::size_t>(held) + 1);
  }
}

void SrmAgent::restore_horizon(net::NodeId source, net::SeqNo highest) {
  CESRM_CHECK_MSG(failed_, "restore_horizon() outside crash recovery");
  if (originates(source) || highest < 0) return;
  // A stream of a node outside this tree (journal from another group
  // layout) would make catch-up issue requests whose distance queries
  // abort the run; drop the record instead of trusting it.
  if (source < 0 || source >= static_cast<net::NodeId>(net_.tree().size()))
    return;
  StreamState& s = stream(source);
  s.highest_seq = std::max(s.highest_seq, highest);
}

void SrmAgent::restore_served(net::NodeId source, net::SeqNo seq,
                              net::NodeId requestor) {
  CESRM_CHECK_MSG(failed_, "restore_served() outside crash recovery");
  restored_served_.emplace(source, seq, requestor);
}

bool SrmAgent::note_already_served(net::NodeId source, net::SeqNo seq,
                                   net::NodeId requestor, bool expedited) {
  if (restored_served_.empty()) return false;
  const auto it = restored_served_.find({source, seq, requestor});
  if (it == restored_served_.end()) return false;
  if (!reply_dedup_) {
    // Diagnostic mode: serve the duplicate but count the violation — the
    // fault oracle's duplicate-retransmission detector fires on this.
    ++stats_.duplicate_retransmissions_served;
    return false;
  }
  // Exactly-once with liveness: consume the entry so that if the repair
  // truly never arrived, the requestor's own backed-off retry finds the
  // ledger empty and is served normally.
  restored_served_.erase(it);
  ++stats_.retransmissions_suppressed;
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRetransmissionSuppressed, self_,
              source, seq, requestor, expedited ? 1 : 0);
  return true;
}

void SrmAgent::release_catch_up_batch() {
  if (failed_) {
    ++stats_.zombie_timer_fires;
    return;
  }
  std::size_t released = 0;
  while (catch_up_next_ < catch_up_queue_.size() && released < kCatchUpBatch) {
    const auto [source, seq] = catch_up_queue_[catch_up_next_++];
    // A repair overheard since recover() — typically one triggered by
    // another member rejoining from the same outage — may have filled the
    // gap already; only still-missing packets consume batch slots.
    if (detect_loss(source, seq, /*suppressed=*/false) != nullptr) ++released;
  }
  if (catch_up_next_ < catch_up_queue_.size()) {
    if (!catch_up_timer_) {
      catch_up_timer_ = std::make_unique<sim::Timer>(
          sim_, [this] { release_catch_up_batch(); });
    }
    catch_up_timer_->arm(kCatchUpInterval);
  } else {
    catch_up_queue_.clear();
    catch_up_next_ = 0;
  }
}

void SrmAgent::send_data(net::SeqNo seq) {
  CESRM_CHECK_MSG(!failed_, "failed member cannot transmit");
  StreamState& s = stream(self_);
  CESRM_CHECK_MSG(seq == s.last_sent + 1, "data sequence must be consecutive");
  s.last_sent = seq;
  s.highest_seq = std::max(s.highest_seq, seq);
  ++stats_.data_sent;
  net_.multicast(self_, net::make_data_packet(self_, seq));
}

SrmAgent::StreamState& SrmAgent::stream(net::NodeId source) {
  auto it = streams_.find(source);
  if (it == streams_.end()) {
    StreamState s;
    s.source = source;
    it = streams_.emplace(source, std::move(s)).first;
  }
  return it->second;
}

const SrmAgent::StreamState* SrmAgent::find_stream(net::NodeId source) const {
  const auto it = streams_.find(source);
  return it == streams_.end() ? nullptr : &it->second;
}

bool SrmAgent::has_packet(net::NodeId source, net::SeqNo seq) const {
  if (seq < 0) return false;
  const StreamState* s = find_stream(source);
  if (s == nullptr) return false;
  if (originates(source)) return seq <= s->last_sent;
  return static_cast<std::size_t>(seq) < s->received.size() &&
         s->received[static_cast<std::size_t>(seq)];
}

net::SeqNo SrmAgent::highest_seq(net::NodeId source) const {
  const StreamState* s = find_stream(source);
  return s ? s->highest_seq : net::kNoSeq;
}

std::vector<net::NodeId> SrmAgent::known_streams() const {
  std::vector<net::NodeId> out;
  for (const auto& [source, s] : streams_) out.push_back(source);
  return out;
}

double SrmAgent::distance_to(net::NodeId peer) const {
  const double truth = net_.path_delay(self_, peer).to_seconds();
  if (config_.oracle_distances) return truth;
  // Until the first session echo closes the loop, fall back to the true
  // delay — the paper's warm-up guarantees estimates exist before data
  // flows, so the fallback only matters for hosts probed very early.
  return dist_.distance(peer, truth);
}

std::size_t SrmAgent::outstanding_losses() const {
  std::size_t n = 0;
  for (const auto& [source, s] : streams_) n += s.want.size();
  return n;
}

std::size_t SrmAgent::stalled_losses() const {
  std::size_t n = 0;
  for (const auto& [source, s] : streams_)
    for (const auto& [seq, want] : s.want)
      if (!want->request_timer || !want->request_timer->armed()) ++n;
  return n;
}

void SrmAgent::finalize_stats() {
  for (auto& [source, s] : streams_) {
    for (const auto& [seq, want] : s.want) {
      RecoveryRecord rec;
      rec.source = source;
      rec.seq = seq;
      rec.detect_time = want->detect_time;
      rec.recover_time = sim::SimTime::infinity();
      rec.recovered = false;
      rec.rounds = want->backoff;
      stats_.recoveries.push_back(rec);
    }
    s.want.clear();
  }
}

// ---------------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------------

void SrmAgent::on_packet(const net::Packet& pkt) {
  if (failed_) return;  // crash-stop: the member is deaf
  switch (pkt.type) {
    case net::PacketType::kData:
      if (!originates(pkt.source)) {
        mark_received(pkt);
        note_new_sequence(pkt.source, pkt.seq);
      }
      break;
    case net::PacketType::kSession: {
      CESRM_CHECK(pkt.session != nullptr);
      dist_.on_session(pkt.sender, *pkt.session, sim_.now());
      for (const auto& advert : pkt.session->streams) {
        if (originates(advert.source) || advert.highest_seq < 0) continue;
        note_new_sequence(advert.source, advert.highest_seq);
      }
      break;
    }
    case net::PacketType::kRequest:
      handle_request(pkt);
      break;
    case net::PacketType::kReply:
    case net::PacketType::kExpReply:
      on_reply_observed(pkt);
      handle_reply(pkt);
      break;
    case net::PacketType::kExpRequest:
      on_exp_request(pkt);
      break;
  }
}

bool SrmAgent::on_wire(std::span<const std::uint8_t> bytes) {
  net::Packet pkt;
  if (auto err = wire::decode_packet_exact(bytes, &pkt)) {
    const auto kind = static_cast<std::size_t>(err->kind);
    ++stats_.wire_decode_errors[kind];
    if (auto* rec = sim_.recorder())
      rec->emit(sim_.now(), obs::EventKind::kDecodeError, self_,
                net::kInvalidNode, net::kNoSeq, net::kInvalidNode,
                static_cast<int>(err->kind));
    return false;
  }
  ++stats_.wire_packets_decoded;
  on_packet(pkt);
  return true;
}

// ---------------------------------------------------------------------------
// Loss detection
// ---------------------------------------------------------------------------

void SrmAgent::note_new_sequence(net::NodeId source, net::SeqNo seq) {
  if (originates(source)) return;
  StreamState& s = stream(source);
  if (seq <= s.highest_seq) return;
  const net::SeqNo first = s.highest_seq + 1;
  s.highest_seq = seq;
  if (durable_sink_) durable_sink_->on_horizon(source, seq);
  if (resync_pending_) {
    // First advance of the sequence horizon after recover(): the gap spans
    // everything missed while down, potentially hundreds of packets. Route
    // it through the paced catch-up queue — arming one request timer per
    // packet in a single instant synchronizes the requests, defeats reply
    // suppression, and the resulting reply implosion congests the shared
    // 1.5 Mbps links for tens of simulated seconds.
    resync_pending_ = false;
    for (net::SeqNo j = first; j <= seq; ++j)
      if (!has_packet(source, j)) catch_up_queue_.emplace_back(source, j);
    if (!(catch_up_timer_ && catch_up_timer_->armed()))
      release_catch_up_batch();
    return;
  }
  // Everything up to `seq` exists; any packet in (old highest, seq] we do
  // not hold is a fresh loss.
  for (net::SeqNo j = first; j <= seq; ++j)
    if (!has_packet(source, j)) detect_loss(source, j, /*suppressed=*/false);
}

SrmAgent::WantState* SrmAgent::detect_loss(net::NodeId source,
                                           net::SeqNo seq, bool suppressed) {
  if (originates(source) || has_packet(source, seq)) return nullptr;
  StreamState& s = stream(source);
  if (auto it = s.want.find(seq); it != s.want.end()) return it->second.get();

  auto state = std::make_unique<WantState>();
  WantState* want = state.get();
  want->source = source;
  want->seq = seq;
  want->detect_time = sim_.now();
  want->request_timer = std::make_unique<sim::Timer>(
      sim_, [this, source, seq] { request_timer_fired(source, seq); });
  ++stats_.losses_detected;
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kLossDetected, self_, source, seq,
              net::kInvalidNode, suppressed ? 1 : 0);

  if (suppressed) {
    // Detected by hearing another host's request: our own request starts
    // already backed off to round 1, and the back-off abstinence period
    // for that round begins.
    want->backoff = 1;
    want->request_timer->arm(draw_request_delay(source, want->backoff));
    want->abstinence_until =
        sim_.now() + sim::SimTime::from_seconds(
                         std::ldexp(config_.c3 * distance_to(source),
                                    want->backoff));
  } else {
    want->backoff = 0;
    want->request_timer->arm(draw_request_delay(source, 0));
  }
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRequestScheduled, self_, source,
              seq, net::kInvalidNode, want->backoff);
  s.want.emplace(seq, std::move(state));
  on_loss_detected(*want);
  return want;
}

void SrmAgent::mark_received(const net::Packet& via) {
  CESRM_CHECK(!originates(via.source));
  const net::SeqNo seq = via.seq;
  if (seq < 0) return;
  StreamState& s = stream(via.source);
  if (static_cast<std::size_t>(seq) >= s.received.size())
    s.received.resize(static_cast<std::size_t>(seq) + 1, false);
  if (s.received[static_cast<std::size_t>(seq)]) {
    if (via.type == net::PacketType::kReply ||
        via.type == net::PacketType::kExpReply) {
      ++stats_.duplicate_replies_received;
      if (auto* rec = sim_.recorder())
        rec->emit(sim_.now(), obs::EventKind::kDuplicateRepair, self_,
                  via.source, seq, via.sender);
    }
    return;
  }
  s.received[static_cast<std::size_t>(seq)] = true;

  if (auto it = s.want.find(seq); it != s.want.end()) {
    WantState& want = *it->second;
    RecoveryRecord rec;
    rec.source = via.source;
    rec.seq = seq;
    rec.detect_time = want.detect_time;
    rec.recover_time = sim_.now();
    rec.recovered = true;
    rec.expedited = via.type == net::PacketType::kExpReply;
    rec.rounds = want.backoff;
    stats_.recoveries.push_back(rec);
    if (auto* recorder = sim_.recorder()) {
      // Exactly one closing event per RecoveryRecord. An expedited attempt
      // was actually sent iff the expedited timer exists and has fired
      // (still-armed means it was beaten within REORDER-DELAY).
      obs::EventKind kind = obs::EventKind::kRecovered;
      if (rec.expedited) {
        kind = obs::EventKind::kExpSuccess;
      } else if (want.exp_timer && !want.exp_timer->armed()) {
        kind = obs::EventKind::kExpFallback;
      }
      // aux carries the recovery latency so streaming consumers can fold
      // latency percentiles from the closing event alone.
      recorder->emit(sim_.now(), kind, self_, via.source, seq, via.sender,
                     rec.rounds, (sim_.now() - want.detect_time).ns());
    }
    if (want.exp_timer && want.exp_timer->armed())
      ++stats_.exp_requests_cancelled;
    // Adaptive request timers (Floyd et al. §V): feed the completed
    // episode's duplicate count and, when we requested ourselves, the
    // delay our timer contributed (in units of d̂hs).
    if (req_ctrl_ && want.requests_seen > 0) {
      const double dups = static_cast<double>(want.requests_seen - 1);
      if (want.first_own_request < sim::SimTime::infinity()) {
        const double d = distance_to(via.source);
        const double delay_norm =
            d > 0.0
                ? (want.first_own_request - want.detect_time).to_seconds() / d
                : 0.0;
        req_ctrl_->observe(dups, delay_norm);
      } else {
        req_ctrl_->observe_duplicates(dups);
      }
    }
    s.want.erase(it);  // timers cancel via destructors
  } else if (via.type == net::PacketType::kReply ||
             via.type == net::PacketType::kExpReply) {
    // A retransmission delivered a packet whose original we never saw and
    // whose loss we had not yet detected: the repair beat detection.
    ++stats_.repairs_before_detection;
    if (auto* rec = sim_.recorder())
      rec->emit(sim_.now(), obs::EventKind::kRepairBeforeDetection, self_,
                via.source, seq, via.sender);
  }
  on_packet_available(via.source, seq);
}

// ---------------------------------------------------------------------------
// Request scheduling (§2.1)
// ---------------------------------------------------------------------------

sim::SimTime SrmAgent::draw_request_delay(net::NodeId source, int k) {
  const double d = distance_to(source);
  const double c1 = req_ctrl_ ? req_ctrl_->deterministic() : config_.c1;
  const double c2 = req_ctrl_ ? req_ctrl_->probabilistic() : config_.c2;
  const double lo = c1 * d;
  const double hi = (c1 + c2) * d;
  const double scale = std::ldexp(1.0, std::min(k, kMaxRequestBackoff));
  return sim::SimTime::from_seconds(scale * rng_.uniform(lo, hi));
}

void SrmAgent::request_timer_fired(net::NodeId source, net::SeqNo seq) {
  if (failed_) {
    ++stats_.zombie_timer_fires;
    return;
  }
  StreamState& s = stream(source);
  const auto it = s.want.find(seq);
  CESRM_CHECK_MSG(it != s.want.end(), "request timer for unknown loss");
  WantState& want = *it->second;
  CESRM_CHECK(!want.recovered);

  ++stats_.requests_sent;
  ++want.requests_seen;
  if (want.first_own_request == sim::SimTime::infinity())
    want.first_own_request = sim_.now();
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRequestSent, self_, source, seq,
              net::kInvalidNode, want.backoff);
  net_.multicast(self_, net::make_request_packet(self_, source, seq,
                                                 distance_to(source)));
  // Schedule the next round.
  want.backoff = std::min(want.backoff + 1, kMaxRequestBackoff);
  want.request_timer->arm(draw_request_delay(source, want.backoff));
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRequestScheduled, self_, source,
              seq, net::kInvalidNode, want.backoff);
  want.abstinence_until =
      sim_.now() +
      sim::SimTime::from_seconds(
          std::ldexp(config_.c3 * distance_to(source), want.backoff));
}

void SrmAgent::backoff_request(WantState& want) {
  if (sim_.now() < want.abstinence_until)
    return;  // same recovery round: discard (§2.1 back-off abstinence)
  want.backoff = std::min(want.backoff + 1, kMaxRequestBackoff);
  want.request_timer->arm(draw_request_delay(want.source, want.backoff));
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kRequestSuppressed, self_,
              want.source, want.seq, net::kInvalidNode, want.backoff);
  want.abstinence_until =
      sim_.now() +
      sim::SimTime::from_seconds(
          std::ldexp(config_.c3 * distance_to(want.source), want.backoff));
}

void SrmAgent::handle_request(const net::Packet& pkt) {
  ++stats_.requests_received;
  if (!originates(pkt.source) && pkt.seq > 0)
    note_new_sequence(pkt.source, pkt.seq - 1);

  if (has_packet(pkt.source, pkt.seq)) {
    ReplyState& rs = reply_state(pkt.source, pkt.seq);
    if (sim_.now() < rs.abstinence_until)
      return;  // reply pending: discard the request (§2.2)
    if (rs.scheduled) return;  // a reply is already on its way
    rs.scheduled = true;
    rs.requestor = pkt.ann.requestor;
    rs.requestor_dist_to_src = pkt.ann.dist_requestor_source;
    rs.request_arrival = sim_.now();
    const double d = distance_to(rs.requestor);
    const double d1 = rep_ctrl_ ? rep_ctrl_->deterministic() : config_.d1;
    const double d2 = rep_ctrl_ ? rep_ctrl_->probabilistic() : config_.d2;
    const double lo = d1 * d;
    const double hi = (d1 + d2) * d;
    rs.reply_timer->arm(sim::SimTime::from_seconds(rng_.uniform(lo, hi)));
    if (auto* rec = sim_.recorder())
      rec->emit(sim_.now(), obs::EventKind::kRepairScheduled, self_,
                pkt.source, pkt.seq, rs.requestor);
    return;
  }

  // We share the loss. Either back off our scheduled request or, if this
  // is the first we hear of the packet, detect it in suppressed mode.
  StreamState& s = stream(pkt.source);
  if (auto it = s.want.find(pkt.seq); it != s.want.end()) {
    ++it->second->requests_seen;
    backoff_request(*it->second);
  } else if (WantState* fresh =
                 detect_loss(pkt.source, pkt.seq, /*suppressed=*/true)) {
    ++fresh->requests_seen;
  }
}

// ---------------------------------------------------------------------------
// Reply scheduling (§2.2)
// ---------------------------------------------------------------------------

SrmAgent::ReplyState& SrmAgent::reply_state(net::NodeId source,
                                            net::SeqNo seq) {
  StreamState& s = stream(source);
  auto it = s.reply.find(seq);
  if (it == s.reply.end()) {
    auto state = std::make_unique<ReplyState>();
    state->reply_timer = std::make_unique<sim::Timer>(
        sim_, [this, source, seq] { reply_timer_fired(source, seq); });
    it = s.reply.emplace(seq, std::move(state)).first;
  }
  return *it->second;
}

void SrmAgent::reply_timer_fired(net::NodeId source, net::SeqNo seq) {
  if (failed_) {
    ++stats_.zombie_timer_fires;
    return;
  }
  ReplyState& rs = reply_state(source, seq);
  CESRM_CHECK(rs.scheduled);
  rs.scheduled = false;
  CESRM_CHECK(has_packet(source, seq));

  if (note_already_served(source, seq, rs.requestor, /*expedited=*/false)) {
    // Already served before the crash: suppress the duplicate but observe
    // abstinence as if it went out, so a burst of queued requests for the
    // same repair cannot stampede this host.
    rs.abstinence_until =
        sim_.now() + sim::SimTime::from_seconds(config_.d3 *
                                                distance_to(rs.requestor));
    return;
  }

  net::RecoveryAnnotation ann;
  ann.requestor = rs.requestor;
  ann.dist_requestor_source = rs.requestor_dist_to_src;
  ann.replier = self_;
  ann.dist_replier_requestor = distance_to(rs.requestor);
  ++stats_.replies_sent;
  if (auto* rec = sim_.recorder())
    // aux: how long the reply sat in its suppression timer (§2.2 wait).
    rec->emit(sim_.now(), obs::EventKind::kRepairSent, self_, source, seq,
              rs.requestor, /*detail=*/0,
              (sim_.now() - rs.request_arrival).ns());
  if (rep_ctrl_) {
    // Our reply went out undisturbed: a duplicate-free event, plus a delay
    // sample (scheduling delay in units of d̂hh').
    const double d = distance_to(rs.requestor);
    const double delay_norm =
        d > 0.0 ? (sim_.now() - rs.request_arrival).to_seconds() / d : 0.0;
    rep_ctrl_->observe(0.0, delay_norm);
  }
  net_.multicast(self_, net::make_reply_packet(self_, source, seq, ann));
  if (durable_sink_)
    durable_sink_->on_reply_served(source, seq, rs.requestor,
                                   /*expedited=*/false);
  rs.abstinence_until =
      sim_.now() + sim::SimTime::from_seconds(config_.d3 *
                                              distance_to(rs.requestor));
}

void SrmAgent::handle_reply(const net::Packet& pkt) {
  // Suppression: cancel any scheduled reply and observe the abstinence
  // period keyed to the requestor that instigated this reply.
  ReplyState& rs = reply_state(pkt.source, pkt.seq);
  if (rep_ctrl_ && sim_.now() < rs.abstinence_until) {
    // A reply arrived while one was already pending here: a duplicate
    // event from this host's vantage point.
    rep_ctrl_->observe_duplicates(1.0);
  }
  if (rs.scheduled) {
    rs.scheduled = false;
    rs.reply_timer->cancel();
    if (auto* rec = sim_.recorder())
      rec->emit(sim_.now(), obs::EventKind::kRepairSuppressed, self_,
                pkt.source, pkt.seq, pkt.sender);
  }
  const sim::SimTime abstinence =
      sim_.now() + sim::SimTime::from_seconds(
                       config_.d3 * distance_to(pkt.ann.requestor));
  rs.abstinence_until = std::max(rs.abstinence_until, abstinence);

  if (!originates(pkt.source)) {
    mark_received(pkt);
    note_new_sequence(pkt.source, pkt.seq);
  }
}

// ---------------------------------------------------------------------------
// Session protocol
// ---------------------------------------------------------------------------

void SrmAgent::session_timer_fired() {
  if (failed_) {
    ++stats_.zombie_timer_fires;
    return;
  }
  auto payload = std::make_shared<net::SessionPayload>();
  payload->stamp = sim_.now();
  for (const auto& [source, s] : streams_) {
    const net::SeqNo highest =
        originates(source) ? s.last_sent : s.highest_seq;
    if (highest >= 0) payload->streams.push_back({source, highest});
  }
  payload->echoes = dist_.build_echoes(sim_.now());
  ++stats_.session_sent;
  if (auto* rec = sim_.recorder())
    rec->emit(sim_.now(), obs::EventKind::kSessionSent, self_,
              primary_source_);
  net_.multicast(self_, net::make_session_packet(self_, primary_source_,
                                                 std::move(payload)));
  session_timer_->arm(config_.session_period);
}

// ---------------------------------------------------------------------------
// CESRM hooks (no-ops in plain SRM)
// ---------------------------------------------------------------------------

void SrmAgent::on_loss_detected(WantState&) {}
void SrmAgent::on_reply_observed(const net::Packet&) {}
void SrmAgent::on_exp_request(const net::Packet& pkt) {
  // Plain SRM members never receive expedited requests; tolerate them
  // silently (mixed deployments fall back to normal recovery).
  (void)pkt;
}
void SrmAgent::on_packet_available(net::NodeId, net::SeqNo) {}

}  // namespace cesrm::srm
