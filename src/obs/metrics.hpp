// metrics.hpp — named counters/gauges/histograms for experiment runs.
//
// A MetricsRegistry collects per-run measurements by name; its snapshot
// travels inside ExperimentResult and is merged across the jobs of a
// parallel sweep. Determinism contract: std::map keeps names ordered,
// counters add, gauges take the maximum, and histograms accumulate
// bucket-wise over an identical grid — so a sweep's merged snapshot (and
// its JSON serialization) is byte-identical for any --jobs value as long
// as the merge happens in job order and no wall-clock quantity is ever
// registered.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/stats.hpp"

namespace cesrm::obs {

/// The value part of a registry: plain data, mergeable, serializable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;  ///< merged by maximum
  std::map<std::string, util::Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Deterministic accumulation: counters add, gauges max, histograms
  /// merge bucket-wise (a name absent on one side is adopted whole).
  /// CHECK-fails if a shared histogram name has a different grid.
  void merge(const MetricsSnapshot& other);

  /// One JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// via the shared util/json path; key order is the map order.
  void to_json(std::ostream& os) const;
};

/// Mutation interface the harness populates during collection.
class MetricsRegistry {
 public:
  void add(const std::string& name, std::uint64_t delta);
  /// Records `v` if it exceeds the gauge's current value.
  void gauge_max(const std::string& name, double v);
  /// Get-or-create; an existing histogram must have the same grid.
  util::Histogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets);

  const MetricsSnapshot& snapshot() const { return snap_; }
  MetricsSnapshot take() { return std::move(snap_); }

 private:
  MetricsSnapshot snap_;
};

}  // namespace cesrm::obs
