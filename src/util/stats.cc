#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace tcs {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel combination.
  double delta = other.mean_ - mean_;
  int64_t n = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  count_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() {
  *this = RunningStats();
}

double RunningStats::stddev() const {
  return std::sqrt(variance());
}

}  // namespace tcs
