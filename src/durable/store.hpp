// store.hpp — write-behind durable store for per-agent recovery state.
//
// One AgentStore models the journal file a member would keep next to its
// received data: every recovery-state change the agent publishes through
// srm::DurableSink (sequence-horizon advances, served retransmissions,
// cache admissions) is appended as a CRC-framed record (journal.hpp) to a
// *pending* buffer and committed to the *stable* journal every
// `flush_every` records — write-behind, so a crash loses at most the
// unflushed window, exactly like a real page-cache-backed log. On
// recovery the stable journal is scanned (truncating at the first
// defect), and the valid records are replayed into the agent *before*
// SrmAgent::recover() runs, so the member rejoins with a warm horizon,
// warm requestor/replier caches, and the reply-dedup ledger that gives
// retransmissions exactly-once semantics across the restart.
//
// Three modes:
//   off  — no manager is constructed at all; agents behave bit-identically
//          to a build that predates durability;
//   cold — crashes clear volatile recovery state (caches, ledger, horizon
//          beyond held packets) and nothing is journaled: the baseline a
//          warm restart is measured against;
//   warm — journaling + replay as above.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "net/ids.hpp"
#include "srm/durable_sink.hpp"

namespace cesrm::srm {
class SrmAgent;
}

namespace cesrm::durable {

enum class DurableMode {
  kOff = 0,
  kCold,
  kWarm,
};

const char* durable_mode_name(DurableMode mode);
/// The accepted spellings, comma-joined — for error messages and --help.
const char* durable_mode_names();
std::optional<DurableMode> try_parse_durable_mode(const std::string& name);
/// Throws util::CheckError listing the valid spellings on bad input.
DurableMode parse_durable_mode(const std::string& name);

struct DurableConfig {
  DurableMode mode = DurableMode::kOff;
  /// Write-behind window: pending records are committed to the stable
  /// journal every `flush_every` appends (1 = write-through). A crash
  /// loses at most flush_every - 1 records.
  std::size_t flush_every = 8;
};

/// Aggregated store accounting (summed over agents by Manager::totals).
struct DurableTotals {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  /// Pending (unflushed) records lost to crashes — the write-behind cost.
  std::uint64_t records_dropped_at_crash = 0;
  /// Valid records replayed into agents across all restores.
  std::uint64_t records_restored = 0;
  /// Structurally valid records whose content failed replay validation
  /// (e.g. an invalid node id the wire format permits but replay rejects).
  std::uint64_t records_skipped_invalid = 0;
  /// Restores whose journal scan stopped at a defect (tail discarded).
  std::uint64_t truncated_scans = 0;
  /// Bytes discarded by those truncations.
  std::uint64_t bytes_discarded = 0;

  DurableTotals& operator+=(const DurableTotals& o) {
    records_appended += o.records_appended;
    bytes_appended += o.bytes_appended;
    records_dropped_at_crash += o.records_dropped_at_crash;
    records_restored += o.records_restored;
    records_skipped_invalid += o.records_skipped_invalid;
    truncated_scans += o.truncated_scans;
    bytes_discarded += o.bytes_discarded;
    return *this;
  }
};

/// The durable store of one agent. Implements the agent's DurableSink;
/// owns the pending + stable journal buffers.
class AgentStore : public srm::DurableSink {
 public:
  AgentStore(net::NodeId node, const DurableConfig& config);

  // srm::DurableSink
  void on_horizon(net::NodeId source, net::SeqNo highest) override;
  void on_reply_served(net::NodeId source, net::SeqNo seq,
                       net::NodeId requestor, bool expedited) override;
  void on_cache_tuple(net::NodeId source, net::SeqNo seq,
                      const net::RecoveryAnnotation& ann) override;

  /// Crash: the write-behind window is lost (pending records dropped).
  void on_crash();

  /// Journal replay into `agent`, which must still be failed (call before
  /// recover()). Scans the stable journal, discards everything from the
  /// first defect onward — a damaged journal degrades toward a cold
  /// restart, record by record — and replays the valid prefix
  /// idempotently. Safe to call any number of times.
  void restore(srm::SrmAgent& agent);

  net::NodeId node() const { return node_; }
  const std::vector<std::uint8_t>& stable_journal() const { return stable_; }
  /// Mutable access for corruption tests: damage the bytes, then restore.
  std::vector<std::uint8_t>* mutable_stable_journal() { return &stable_; }
  std::size_t pending_records() const { return pending_records_; }
  const DurableTotals& totals() const { return totals_; }

 private:
  void append(RecordKind kind, const net::Packet& payload);
  void flush();

  const net::NodeId node_;
  const DurableConfig config_;
  std::vector<std::uint8_t> stable_;
  std::vector<std::uint8_t> pending_;
  std::size_t pending_records_ = 0;
  DurableTotals totals_;
};

/// Per-experiment durable manager: one AgentStore per attached member,
/// driven by the FaultScheduler's crash hooks (the harness wires
/// on_crash/before_recover into fault::FaultScheduler::set_crash_hooks).
class Manager {
 public:
  explicit Manager(const DurableConfig& config) : config_(config) {}

  /// Registers `agent`: creates its store and, in warm mode, installs the
  /// store as the agent's durable sink and applies the dedup setting.
  /// The manager must outlive the agent's sends.
  void attach(srm::SrmAgent& agent);

  /// Crash-time hook: drops the write-behind window and clears the
  /// agent's volatile recovery state (cold-restart semantics; warm mode
  /// re-learns from the journal at before_recover).
  void on_crash(srm::SrmAgent& agent);

  /// Recover-time hook, called before agent.recover(): warm-mode journal
  /// replay (no-op in cold mode).
  void before_recover(srm::SrmAgent& agent);

  /// The store of `node` (null when never attached).
  AgentStore* store(net::NodeId node);

  DurableTotals totals() const;
  const DurableConfig& config() const { return config_; }

 private:
  DurableConfig config_;
  std::map<net::NodeId, std::unique_ptr<AgentStore>> stores_;
};

}  // namespace cesrm::durable
