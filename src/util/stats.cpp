#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace cesrm::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void Sample::add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

double Sample::mean() const {
  if (values_.empty()) return 0.0;
  return sum() / static_cast<double>(values_.size());
}

double Sample::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Sample::max() const {
  CESRM_CHECK(!values_.empty());
  return *std::max_element(values_.begin(), values_.end());
}

void Sample::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Sample::percentile(double q) const {
  CESRM_CHECK(!values_.empty());
  CESRM_CHECK(q >= 0.0 && q <= 100.0);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = q / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  CESRM_CHECK(hi > lo);
  CESRM_CHECK(buckets > 0);
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / width));
  if (idx < 0) ++underflow_;
  if (idx >= static_cast<std::int64_t>(counts_.size())) ++overflow_;
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

bool Histogram::same_grid(const Histogram& other) const {
  return lo_ == other.lo_ && hi_ == other.hi_ &&
         counts_.size() == other.counts_.size();
}

void Histogram::merge(const Histogram& other) {
  CESRM_CHECK(same_grid(other));
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

std::string Histogram::to_json() const {
  std::ostringstream os;
  os << "{\"lo\":";
  json_double(os, lo_);
  os << ",\"hi\":";
  json_double(os, hi_);
  os << ",\"buckets\":[";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i) os << ',';
    os << counts_[i];
  }
  os << "],\"total\":" << total_ << ",\"underflow\":" << underflow_
     << ",\"overflow\":" << overflow_ << "}";
  return os.str();
}

}  // namespace cesrm::util
