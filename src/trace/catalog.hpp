// catalog.hpp — the 14 IP multicast transmission traces of Table 1.
//
// The original Yajnik et al. MBone traces are no longer distributed, so
// the catalog records their *published* characteristics (source name,
// receiver count, tree depth, packet period, packet count, total losses)
// and the trace generator re-creates statistically matching transmissions
// (see DESIGN.md, substitution table). Seeds are fixed so every build of
// the repository works with identical traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cesrm::trace {

/// One row of Table 1 plus the generation seed.
struct TraceSpec {
  int id = 0;                ///< 1-based index as in Table 1
  std::string name;          ///< source & date, e.g. "RFV960419"
  int receivers = 0;         ///< "# of Rcvrs"
  int depth = 0;             ///< "Tree Depth"
  int period_ms = 0;         ///< "Period (msec)"
  std::int64_t packets = 0;  ///< "# of Pkts"
  std::int64_t losses = 0;   ///< "# of Losses" (summed over receivers)
  std::uint64_t seed = 0;    ///< deterministic generation seed

  /// Transmission duration implied by packets × period.
  double duration_seconds() const {
    return static_cast<double>(packets) *
           static_cast<double>(period_ms) / 1000.0;
  }
  /// Average per-receiver loss rate losses / (packets · receivers).
  double average_loss_rate() const {
    return static_cast<double>(losses) /
           (static_cast<double>(packets) * static_cast<double>(receivers));
  }
};

/// All 14 entries of Table 1, in order.
const std::vector<TraceSpec>& table1_specs();

/// Looks up a spec by 1-based id; CHECK-fails if out of range.
const TraceSpec& table1_spec(int id);

/// Caps `spec` at `packets_cap` packets, scaling the published loss budget
/// proportionally (so loss *rates* are preserved); a cap <= 0 or at least
/// the spec's length returns it unchanged. The --packets-cap of every
/// bench, example and cesrm_cli generate.
TraceSpec capped_spec(const TraceSpec& spec, std::int64_t packets_cap);

}  // namespace cesrm::trace
