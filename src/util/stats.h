// Streaming statistics.

#ifndef TCS_SRC_UTIL_STATS_H_
#define TCS_SRC_UTIL_STATS_H_

#include <cstdint>
#include <limits>

namespace tcs {

// Welford's online algorithm: numerically stable mean/variance without storing samples.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance (the paper reports variance of all observed RTTs).
  double variance() const { return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0; }
  // Sample variance (n-1 denominator).
  double sample_variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_STATS_H_
