// reports.hpp — the paper's figures and tables, computed from experiment
// results.
//
// Each figureN() function returns exactly the series the corresponding
// figure of §4.4 plots; the bench binaries render them as text tables.
// Conventions follow the paper: receiver indices are 1-based per trace;
// in the packet-count figures (3 and 4) "receiver 0" is the source.
// Recovery times are normalized by each receiver's RTT to the source.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace cesrm::harness {

/// Per-receiver recovery-latency aggregates for one protocol run.
struct ReceiverRecoveryStats {
  int receiver = 0;  ///< 1-based receiver index (source excluded)
  net::NodeId node = net::kInvalidNode;
  std::uint64_t losses = 0;
  std::uint64_t recovered = 0;
  std::uint64_t expedited = 0;
  double avg_norm_all = 0.0;       ///< mean normalized latency, recovered
  double avg_norm_expedited = 0.0; ///< over expedited recoveries only
  double avg_norm_non_expedited = 0.0;
};

std::vector<ReceiverRecoveryStats> receiver_recovery_stats(
    const ExperimentResult& result);

/// Figure 1: per-receiver average normalized recovery time, SRM vs CESRM.
struct Fig1Row {
  int receiver = 0;  // 1-based
  double srm_avg_norm = 0.0;
  double cesrm_avg_norm = 0.0;
  /// cesrm / srm; the paper reports 0.3–0.6 for most receivers.
  double ratio() const {
    return srm_avg_norm > 0.0 ? cesrm_avg_norm / srm_avg_norm : 0.0;
  }
};
std::vector<Fig1Row> figure1(const ExperimentResult& srm,
                             const ExperimentResult& cesrm);

/// Figure 2: per-receiver difference between the average normalized
/// recovery times of non-expedited and expedited CESRM recoveries
/// (positive — expedited recoveries are faster; paper: 1–2.5 RTT).
struct Fig2Row {
  int receiver = 0;
  double difference_rtt = 0.0;
  std::uint64_t expedited = 0;
  std::uint64_t non_expedited = 0;
};
std::vector<Fig2Row> figure2(const ExperimentResult& cesrm);

/// Figures 3/4: per-member packet send counts (member 0 = the source).
struct PacketCountRow {
  int member = 0;  // 0 = source, then receivers 1..R
  std::uint64_t srm = 0;        ///< multicast by SRM
  std::uint64_t cesrm = 0;      ///< multicast by CESRM (fallback path)
  std::uint64_t cesrm_exp = 0;  ///< expedited (unicast requests / replies)
};
std::vector<PacketCountRow> figure3_requests(const ExperimentResult& srm,
                                             const ExperimentResult& cesrm);
std::vector<PacketCountRow> figure4_replies(const ExperimentResult& srm,
                                            const ExperimentResult& cesrm);

/// Figure 5: per-trace expedited success rate and transmission overhead of
/// CESRM relative to SRM. Overhead counts 1 unit per link crossing; the
/// control category covers repair requests (session traffic is identical
/// under both protocols and excluded, as in the paper).
struct Fig5Stats {
  std::string trace_name;
  double pct_successful_expedited = 0.0;  ///< 100 · #EREPL / #ERQST
  double retransmission_pct_of_srm = 0.0; ///< CESRM repl crossings / SRM
  double control_multicast_pct_of_srm = 0.0;  ///< CESRM rqst / SRM rqst
  double control_unicast_pct_of_srm = 0.0;    ///< CESRM erqst / SRM rqst
  double total_control_pct_of_srm() const {
    return control_multicast_pct_of_srm + control_unicast_pct_of_srm;
  }
};
Fig5Stats figure5(const ExperimentResult& srm, const ExperimentResult& cesrm);

/// Figure 5 companion (wire codec): the same overhead comparison measured
/// in encoded wire bytes — Packet::encoded_size() accumulated per link
/// crossing — rather than crossing counts. Counting bytes weighs each
/// category by its actual frame size (a 28-byte expedited annotation vs. a
/// 12-byte request annotation vs. 1 KB payloads), which crossing counts
/// flatten. Rendered in the Figure 5 section of `bench_paper`.
struct Fig5WireStats {
  std::string trace_name;
  std::uint64_t srm_retrans_bytes = 0;    ///< REPL bytes crossed (SRM)
  std::uint64_t cesrm_retrans_bytes = 0;  ///< REPL + EREPL bytes (CESRM)
  std::uint64_t srm_control_bytes = 0;    ///< RQST bytes crossed (SRM)
  std::uint64_t cesrm_mcast_control_bytes = 0;  ///< RQST bytes (CESRM)
  std::uint64_t cesrm_ucast_control_bytes = 0;  ///< ERQST bytes (CESRM)
  double retransmission_pct_of_srm = 0.0;
  double control_multicast_pct_of_srm = 0.0;
  double control_unicast_pct_of_srm = 0.0;
  double total_control_pct_of_srm() const {
    return control_multicast_pct_of_srm + control_unicast_pct_of_srm;
  }
};
Fig5WireStats figure5_wire(const ExperimentResult& srm,
                           const ExperimentResult& cesrm);

/// §3.4 analysis: the closed-form bounds of Equations (1) and (2).
struct AnalysisBounds {
  /// Eq. (1): rough upper bound on the average first-round non-expedited
  /// recovery latency, in units of one-way delay d.
  double srm_first_round_bound_d = 0.0;
  /// Same in RTT units (d = RTT/2).
  double srm_first_round_bound_rtt = 0.0;
  /// Eq. (2): expedited recovery latency bound in RTT units, assuming
  /// REORDER-DELAY ≪ RTT.
  double expedited_bound_rtt = 0.0;
  /// Predicted improvement (difference of the two, in RTT).
  double predicted_gain_rtt = 0.0;
};
/// The bounds under SRM's timer weights (srm::kC1, kC2, kD1, kD2).
AnalysisBounds analysis_bounds();

// --------------------------------------------------------------------------
// JSON result sink — machine-readable companion to the text tables.
// --------------------------------------------------------------------------

/// One experiment result as a JSON object: trace, protocol, aggregate
/// counters, mean normalized recovery time, and the per-receiver recovery
/// stats (the Figure 1/2 series). `wall_seconds` < 0 omits the field;
/// `label` tags bench variants (policy, delay, …) and is omitted if empty.
std::string to_json(const ExperimentResult& result, double wall_seconds = -1.0,
                    const std::string& label = "");

/// Accumulates experiment results and writes them as one JSON document
/// of the form {"results": [...]}, so every bench can emit machine-readable
/// output alongside its tables (--json=FILE).
class JsonResultSink {
 public:
  void add(const ExperimentResult& result, double wall_seconds = -1.0,
           const std::string& label = "");

  std::size_t size() const { return entries_.size(); }
  std::string document() const;
  /// Writes document() to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<std::string> entries_;
};

}  // namespace cesrm::harness
