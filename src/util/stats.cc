#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace tcs {

void RunningStats::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::stddev() const {
  return std::sqrt(variance());
}

}  // namespace tcs
