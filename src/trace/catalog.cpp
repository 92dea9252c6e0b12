#include "trace/catalog.hpp"

#include "util/check.hpp"

namespace cesrm::trace {

const std::vector<TraceSpec>& table1_specs() {
  // Columns transcribed from Table 1 of the paper. The duration column is
  // implied by packets × period and is reproduced by duration_seconds().
  static const std::vector<TraceSpec> kSpecs = {
      {1, "RFV960419", 12, 6, 80, 45001, 24086, 0xCE5D0001ULL},
      {2, "RFV960508", 10, 5, 40, 148970, 55987, 0xCE5D0002ULL},
      {3, "UCB960424", 15, 7, 40, 93734, 33506, 0xCE5D0003ULL},
      {4, "WRN950919", 8, 4, 80, 17637, 10276, 0xCE5D0004ULL},
      {5, "WRN951030", 10, 4, 80, 57030, 15879, 0xCE5D0005ULL},
      {6, "WRN951101", 9, 5, 80, 41751, 18911, 0xCE5D0006ULL},
      {7, "WRN951113", 12, 5, 80, 46443, 29686, 0xCE5D0007ULL},
      {8, "WRN951114", 10, 4, 80, 38539, 11803, 0xCE5D0008ULL},
      {9, "WRN951128", 9, 4, 80, 44956, 33040, 0xCE5D0009ULL},
      {10, "WRN951204", 11, 5, 80, 45404, 16814, 0xCE5D000AULL},
      {11, "WRN951211", 11, 4, 80, 72519, 44649, 0xCE5D000BULL},
      {12, "WRN951214", 7, 4, 80, 38724, 20872, 0xCE5D000CULL},
      {13, "WRN951216", 8, 3, 80, 50202, 37833, 0xCE5D000DULL},
      {14, "WRN951218", 8, 3, 80, 69994, 43578, 0xCE5D000EULL},
  };
  return kSpecs;
}

const TraceSpec& table1_spec(int id) {
  const auto& specs = table1_specs();
  CESRM_CHECK_MSG(id >= 1 && id <= static_cast<int>(specs.size()),
                  "trace id out of range: " << id);
  return specs[static_cast<std::size_t>(id - 1)];
}

TraceSpec capped_spec(const TraceSpec& spec, std::int64_t packets_cap) {
  if (packets_cap <= 0 || packets_cap >= spec.packets) return spec;
  TraceSpec scaled = spec;
  const double scale = static_cast<double>(packets_cap) /
                       static_cast<double>(spec.packets);
  scaled.packets = packets_cap;
  scaled.losses = static_cast<std::int64_t>(
      static_cast<double>(spec.losses) * scale);
  return scaled;
}

}  // namespace cesrm::trace
