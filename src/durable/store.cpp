#include "durable/store.hpp"

#include "cesrm/cesrm_agent.hpp"
#include "srm/srm_agent.hpp"
#include "util/check.hpp"
#include "util/enum_names.hpp"
#include "util/logging.hpp"

namespace cesrm::durable {

namespace {

constexpr util::EnumNames<DurableMode, 3> kDurableModeNames{
    "durable mode",
    {{{DurableMode::kOff, "off"},
      {DurableMode::kCold, "cold"},
      {DurableMode::kWarm, "warm"}}}};

}  // namespace

const char* durable_mode_name(DurableMode mode) {
  return kDurableModeNames.name(mode);
}

const char* durable_mode_names() {
  static const std::string joined = kDurableModeNames.joined_names();
  return joined.c_str();
}

std::optional<DurableMode> try_parse_durable_mode(const std::string& name) {
  return kDurableModeNames.try_parse(name);
}

DurableMode parse_durable_mode(const std::string& name) {
  return kDurableModeNames.parse(name);
}

// ---------------------------------------------------------------------------
// AgentStore
// ---------------------------------------------------------------------------

AgentStore::AgentStore(net::NodeId node, const DurableConfig& config)
    : node_(node), config_(config) {
  CESRM_CHECK_MSG(config_.flush_every >= 1, "flush_every must be >= 1");
}

void AgentStore::append(RecordKind kind, const net::Packet& payload) {
  const std::size_t before = pending_.size();
  append_record(kind, payload, &pending_);
  ++pending_records_;
  ++totals_.records_appended;
  totals_.bytes_appended += pending_.size() - before;
  if (pending_records_ >= config_.flush_every) flush();
}

void AgentStore::flush() {
  stable_.insert(stable_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  pending_records_ = 0;
}

void AgentStore::on_horizon(net::NodeId source, net::SeqNo highest) {
  auto payload = std::make_shared<net::SessionPayload>();
  payload->streams.push_back({source, highest});
  append(RecordKind::kHorizon,
         net::make_session_packet(node_, node_, std::move(payload)));
}

void AgentStore::on_reply_served(net::NodeId source, net::SeqNo seq,
                                 net::NodeId requestor, bool expedited) {
  if (expedited) {
    net::RecoveryAnnotation ann;
    ann.requestor = requestor;
    ann.replier = node_;
    // The EXP-REQUEST frame requires a unicast destination; the ledger
    // only cares about ⟨source, seq, requestor⟩, so self stands in.
    append(RecordKind::kExpReplyServed,
           net::make_exp_request_packet(node_, node_, source, seq, ann));
    return;
  }
  // Hand-built: make_request_packet stamps ann.requestor = sender, but
  // the ledger must record the *original* requestor this reply served.
  net::Packet pkt;
  pkt.type = net::PacketType::kRequest;
  pkt.source = source;
  pkt.seq = seq;
  pkt.sender = node_;
  pkt.size_bytes = net::default_size_bytes(pkt.type);
  pkt.ann.requestor = requestor;
  append(RecordKind::kReplyServed, pkt);
}

void AgentStore::on_cache_tuple(net::NodeId source, net::SeqNo seq,
                                const net::RecoveryAnnotation& ann) {
  net::Packet pkt = net::make_reply_packet(node_, source, seq, ann);
  // Journal records carry no retransmitted payload — only the annotation.
  pkt.size_bytes = 0;
  append(RecordKind::kCacheTuple, pkt);
}

void AgentStore::on_crash() {
  totals_.records_dropped_at_crash += pending_records_;
  pending_.clear();
  pending_records_ = 0;
}

void AgentStore::restore(srm::SrmAgent& agent) {
  CESRM_CHECK_MSG(agent.failed(), "journal replay into a live member");
  ScanResult result = scan(stable_);
  if (!result.clean()) {
    ++totals_.truncated_scans;
    totals_.bytes_discarded += stable_.size() - result.valid_bytes;
    CESRM_LOG_WARN << "durable journal of node " << node_ << ": "
                   << scan_diagnosis_name(result.diagnosis) << " at offset "
                   << result.error_offset << ", discarding "
                   << (stable_.size() - result.valid_bytes)
                   << " tail bytes (" << result.records.size()
                   << " records survive)";
    // Never trust the damaged tail again — later appends start clean
    // after the valid prefix.
    stable_.resize(result.valid_bytes);
  }
  auto* cesrm_agent = dynamic_cast<cesrm::CesrmAgent*>(&agent);
  for (const Record& rec : result.records) {
    switch (rec.kind) {
      case RecordKind::kHorizon: {
        if (!rec.packet.session) {
          ++totals_.records_skipped_invalid;
          break;
        }
        for (const net::StreamAdvert& advert : rec.packet.session->streams)
          agent.restore_horizon(advert.source, advert.highest_seq);
        ++totals_.records_restored;
        break;
      }
      case RecordKind::kCacheTuple: {
        // The wire format permits invalid node ids in reply annotations;
        // the cache does not. Validate before replay, drop on failure.
        if (rec.packet.seq < 0 ||
            rec.packet.ann.requestor == net::kInvalidNode ||
            rec.packet.ann.replier == net::kInvalidNode) {
          ++totals_.records_skipped_invalid;
          break;
        }
        if (cesrm_agent == nullptr) break;  // plain SRM keeps no cache
        cesrm_agent->restore_cache_tuple(
            rec.packet.source,
            cesrm::RecoveryTuple::from_annotation(rec.packet.seq,
                                                  rec.packet.ann));
        ++totals_.records_restored;
        break;
      }
      case RecordKind::kReplyServed:
      case RecordKind::kExpReplyServed: {
        if (rec.packet.seq < 0 ||
            rec.packet.ann.requestor == net::kInvalidNode) {
          ++totals_.records_skipped_invalid;
          break;
        }
        agent.restore_served(rec.packet.source, rec.packet.seq,
                             rec.packet.ann.requestor);
        ++totals_.records_restored;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------------

void Manager::attach(srm::SrmAgent& agent) {
  CESRM_CHECK_MSG(config_.mode != DurableMode::kOff,
                  "durable manager with mode off");
  auto& slot = stores_[agent.node()];
  if (!slot) slot = std::make_unique<AgentStore>(agent.node(), config_);
  if (config_.mode == DurableMode::kWarm) agent.set_durable_sink(slot.get());
}

void Manager::on_crash(srm::SrmAgent& agent) {
  if (AgentStore* s = store(agent.node())) s->on_crash();
  agent.clear_volatile_recovery_state();
}

void Manager::before_recover(srm::SrmAgent& agent) {
  if (config_.mode != DurableMode::kWarm) return;
  if (AgentStore* s = store(agent.node())) s->restore(agent);
}

AgentStore* Manager::store(net::NodeId node) {
  const auto it = stores_.find(node);
  return it == stores_.end() ? nullptr : it->second.get();
}

DurableTotals Manager::totals() const {
  DurableTotals total;
  for (const auto& [node, s] : stores_) total += s->totals();
  return total;
}

}  // namespace cesrm::durable
