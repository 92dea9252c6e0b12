#include "harness/reports.hpp"

#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace cesrm::harness {

std::vector<ReceiverRecoveryStats> receiver_recovery_stats(
    const ExperimentResult& result) {
  std::vector<ReceiverRecoveryStats> rows;
  rows.reserve(result.receivers().size());
  int idx = 0;
  for (const auto& m : result.receivers()) {
    ++idx;
    ReceiverRecoveryStats row;
    row.receiver = idx;
    row.node = m.node;
    row.losses = m.stats.losses_detected;
    double sum_all = 0.0;
    double sum_exp = 0.0;
    double sum_non = 0.0;
    std::uint64_t n_exp = 0;
    std::uint64_t n_non = 0;
    for (const auto& r : m.stats.recoveries) {
      if (!r.recovered) continue;
      ++row.recovered;
      CESRM_CHECK(m.rtt_to_source > 0.0);
      const double norm = r.latency_seconds() / m.rtt_to_source;
      sum_all += norm;
      if (r.expedited) {
        ++n_exp;
        sum_exp += norm;
      } else {
        ++n_non;
        sum_non += norm;
      }
    }
    row.expedited = n_exp;
    row.avg_norm_all =
        row.recovered ? sum_all / static_cast<double>(row.recovered) : 0.0;
    row.avg_norm_expedited =
        n_exp ? sum_exp / static_cast<double>(n_exp) : 0.0;
    row.avg_norm_non_expedited =
        n_non ? sum_non / static_cast<double>(n_non) : 0.0;
    rows.push_back(row);
  }
  return rows;
}

std::vector<Fig1Row> figure1(const ExperimentResult& srm,
                             const ExperimentResult& cesrm) {
  const auto s = receiver_recovery_stats(srm);
  const auto c = receiver_recovery_stats(cesrm);
  CESRM_CHECK(s.size() == c.size());
  std::vector<Fig1Row> rows;
  for (std::size_t i = 0; i < s.size(); ++i) {
    CESRM_CHECK(s[i].node == c[i].node);
    Fig1Row row;
    row.receiver = s[i].receiver;
    row.srm_avg_norm = s[i].avg_norm_all;
    row.cesrm_avg_norm = c[i].avg_norm_all;
    rows.push_back(row);
  }
  return rows;
}

std::vector<Fig2Row> figure2(const ExperimentResult& cesrm) {
  std::vector<Fig2Row> rows;
  for (const auto& r : receiver_recovery_stats(cesrm)) {
    Fig2Row row;
    row.receiver = r.receiver;
    row.expedited = r.expedited;
    row.non_expedited = r.recovered - r.expedited;
    row.difference_rtt = (r.expedited && row.non_expedited)
                             ? r.avg_norm_non_expedited - r.avg_norm_expedited
                             : 0.0;
    rows.push_back(row);
  }
  return rows;
}

namespace {

std::vector<PacketCountRow> packet_counts(
    const ExperimentResult& srm, const ExperimentResult& cesrm,
    std::uint64_t srm::HostStats::* normal,
    std::uint64_t srm::HostStats::* expedited) {
  CESRM_CHECK(srm.members.size() == cesrm.members.size());
  std::vector<PacketCountRow> rows;
  for (std::size_t i = 0; i < srm.members.size(); ++i) {
    CESRM_CHECK(srm.members[i].node == cesrm.members[i].node);
    PacketCountRow row;
    row.member = static_cast<int>(i);  // 0 = source
    row.srm = srm.members[i].stats.*normal;
    row.cesrm = cesrm.members[i].stats.*normal;
    row.cesrm_exp = cesrm.members[i].stats.*expedited;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

std::vector<PacketCountRow> figure3_requests(const ExperimentResult& srm,
                                             const ExperimentResult& cesrm) {
  return packet_counts(srm, cesrm, &srm::HostStats::requests_sent,
                       &srm::HostStats::exp_requests_sent);
}

std::vector<PacketCountRow> figure4_replies(const ExperimentResult& srm,
                                            const ExperimentResult& cesrm) {
  return packet_counts(srm, cesrm, &srm::HostStats::replies_sent,
                       &srm::HostStats::exp_replies_sent);
}

Fig5Stats figure5(const ExperimentResult& srm, const ExperimentResult& cesrm) {
  Fig5Stats out;
  out.trace_name = cesrm.trace_name;

  const std::uint64_t erqst = cesrm.total_exp_requests_sent();
  const std::uint64_t erepl = cesrm.total_exp_replies_sent();
  out.pct_successful_expedited =
      erqst ? 100.0 * static_cast<double>(erepl) / static_cast<double>(erqst)
            : 0.0;

  using PT = net::PacketType;
  const auto total = [](const net::CrossingStats& c, PT t) {
    return c.total_of(t);
  };
  const std::uint64_t srm_retrans = total(srm.crossings, PT::kReply);
  const std::uint64_t cesrm_retrans =
      total(cesrm.crossings, PT::kReply) + total(cesrm.crossings, PT::kExpReply);
  out.retransmission_pct_of_srm =
      srm_retrans ? 100.0 * static_cast<double>(cesrm_retrans) /
                        static_cast<double>(srm_retrans)
                  : 0.0;

  const std::uint64_t srm_control = total(srm.crossings, PT::kRequest);
  out.control_multicast_pct_of_srm =
      srm_control ? 100.0 *
                        static_cast<double>(total(cesrm.crossings,
                                                  PT::kRequest)) /
                        static_cast<double>(srm_control)
                  : 0.0;
  out.control_unicast_pct_of_srm =
      srm_control ? 100.0 *
                        static_cast<double>(total(cesrm.crossings,
                                                  PT::kExpRequest)) /
                        static_cast<double>(srm_control)
                  : 0.0;
  return out;
}

Fig5WireStats figure5_wire(const ExperimentResult& srm,
                           const ExperimentResult& cesrm) {
  Fig5WireStats out;
  out.trace_name = cesrm.trace_name;

  using PT = net::PacketType;
  out.srm_retrans_bytes = srm.crossings.wire_bytes_of(PT::kReply);
  out.cesrm_retrans_bytes = cesrm.crossings.wire_bytes_of(PT::kReply) +
                            cesrm.crossings.wire_bytes_of(PT::kExpReply);
  out.srm_control_bytes = srm.crossings.wire_bytes_of(PT::kRequest);
  out.cesrm_mcast_control_bytes = cesrm.crossings.wire_bytes_of(PT::kRequest);
  out.cesrm_ucast_control_bytes =
      cesrm.crossings.wire_bytes_of(PT::kExpRequest);

  const auto pct = [](std::uint64_t num, std::uint64_t den) {
    return den ? 100.0 * static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
  };
  out.retransmission_pct_of_srm =
      pct(out.cesrm_retrans_bytes, out.srm_retrans_bytes);
  out.control_multicast_pct_of_srm =
      pct(out.cesrm_mcast_control_bytes, out.srm_control_bytes);
  out.control_unicast_pct_of_srm =
      pct(out.cesrm_ucast_control_bytes, out.srm_control_bytes);
  return out;
}

// --------------------------------------------------------------- JSON ------

using util::json_double;
using util::json_escape;

std::string to_json(const ExperimentResult& result, double wall_seconds,
                    const std::string& label) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"trace\":";
  json_escape(os, result.trace_name);
  os << ",\"protocol\":\"" << protocol_name(result.protocol) << '"';
  if (!label.empty()) {
    os << ",\"label\":";
    json_escape(os, label);
  }
  os << ",\"packets_sent\":" << result.packets_sent
     << ",\"events_executed\":" << result.events_executed
     << ",\"sim_end_seconds\":";
  json_double(os, result.sim_end.to_seconds());
  if (wall_seconds >= 0.0) {
    os << ",\"wall_seconds\":";
    json_double(os, wall_seconds);
  }
  os << ",\"losses_detected\":" << result.total_losses_detected()
     << ",\"silent_repairs\":" << result.total_silent_repairs()
     << ",\"recovered\":" << result.total_recovered()
     << ",\"unrecovered\":" << result.total_unrecovered()
     << ",\"requests_sent\":" << result.total_requests_sent()
     << ",\"replies_sent\":" << result.total_replies_sent()
     << ",\"exp_requests_sent\":" << result.total_exp_requests_sent()
     << ",\"exp_replies_sent\":" << result.total_exp_replies_sent()
     << ",\"mean_normalized_recovery_time\":";
  json_double(os, result.mean_normalized_recovery_time());
  os << ",\"receivers\":[";
  bool first = true;
  for (const auto& r : receiver_recovery_stats(result)) {
    if (!first) os << ',';
    first = false;
    os << "{\"receiver\":" << r.receiver << ",\"node\":" << r.node
       << ",\"losses\":" << r.losses << ",\"recovered\":" << r.recovered
       << ",\"expedited\":" << r.expedited << ",\"avg_norm_all\":";
    json_double(os, r.avg_norm_all);
    os << ",\"avg_norm_expedited\":";
    json_double(os, r.avg_norm_expedited);
    os << ",\"avg_norm_non_expedited\":";
    json_double(os, r.avg_norm_non_expedited);
    os << '}';
  }
  os << "]}";
  return os.str();
}

void JsonResultSink::add(const ExperimentResult& result, double wall_seconds,
                         const std::string& label) {
  entries_.push_back(to_json(result, wall_seconds, label));
}

std::string JsonResultSink::document() const {
  std::string doc = "{\"results\":[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) doc += ',';
    doc += '\n';
    doc += entries_[i];
  }
  doc += "\n]}\n";
  return doc;
}

bool JsonResultSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << document();
  return static_cast<bool>(out);
}

AnalysisBounds analysis_bounds() {
  AnalysisBounds b;
  // Eq. (1): (C1 + C2/2)·d + d + (D1 + D2/2)·d + d
  b.srm_first_round_bound_d =
      (srm::kC1 + 0.5 * srm::kC2) + 1.0 + (srm::kD1 + 0.5 * srm::kD2) + 1.0;
  b.srm_first_round_bound_rtt = b.srm_first_round_bound_d / 2.0;
  // Eq. (2): REORDER-DELAY + RTT ≈ RTT for negligible REORDER-DELAY.
  b.expedited_bound_rtt = 1.0;
  b.predicted_gain_rtt = b.srm_first_round_bound_rtt - b.expedited_bound_rtt;
  return b;
}

}  // namespace cesrm::harness
