// stats.hpp — online and batch statistics used by the experiment harness.
//
// OnlineStats accumulates mean and extrema in O(1) space (Welford's
// running mean). Sample keeps the raw values for percentile queries — trace
// experiments hold at most a few hundred thousand recovery records, so the
// memory cost is negligible. Histogram buckets values on a fixed linear
// grid for the metrics snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cesrm::util {

/// Streaming mean / min / max accumulator (Welford's running mean).
class OnlineStats {
 public:
  void add(double x);
  /// Merges another accumulator (parallel-friendly Chan et al. update).
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Mean of the observations; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Value-retaining sample supporting exact percentiles.
class Sample {
 public:
  void add(double x);
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double max() const;
  double sum() const;

  /// Exact percentile by linear interpolation between order statistics.
  /// `q` in [0, 100]. Requires a non-empty sample.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Fixed-grid linear histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets so counts are never dropped, but each clamp is also
/// tallied in underflow()/overflow() so exported distributions can state
/// honestly how much mass the edge buckets absorbed.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::uint64_t total() const { return total_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  /// Observations below lo (clamped into the first bucket).
  std::uint64_t underflow() const { return underflow_; }
  /// Observations at or above hi (clamped into the last bucket).
  std::uint64_t overflow() const { return overflow_; }

  /// True when `other` shares this histogram's grid (lo, hi, buckets) —
  /// the precondition of merge().
  bool same_grid(const Histogram& other) const;
  /// Bucket-wise accumulation of an identically-gridded histogram
  /// (parallel-runner metric merging). CHECK-fails on a grid mismatch.
  void merge(const Histogram& other);

  /// JSON object: grid, bucket counts, total, and the under/overflow
  /// tallies (util/json.hpp formatting, shared with harness/reports.cpp).
  std::string to_json() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace cesrm::util
