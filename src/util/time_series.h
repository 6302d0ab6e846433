// Bucketed time-series accumulator.
//
// Used everywhere a figure plots "X vs time": CPU utilization per 100 ms bucket (Fig. 1),
// network load per second (Figs. 4/5), cache hit ratio over time (Fig. 6). Values are
// accumulated into fixed-width buckets of virtual time; the series can then be read out as
// (bucket start, sum | mean) rows.

#ifndef TCS_SRC_UTIL_TIME_SERIES_H_
#define TCS_SRC_UTIL_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace tcs {

class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width);

  // Adds `value` at time `t`. Buckets are created on demand; out-of-order adds are fine.
  void Add(TimePoint t, double value);

  // Adds `value` spread uniformly over [start, end) — used for busy intervals that span
  // bucket boundaries (e.g. a 250 ms CPU burst contributes to three 100 ms buckets).
  void AddSpread(TimePoint start, TimePoint end, double value);

  Duration bucket_width() const { return bucket_width_; }
  size_t bucket_count() const { return sums_.size(); }

  // Bucket accessors. `i` must be < bucket_count().
  TimePoint BucketStart(size_t i) const;
  double Sum(size_t i) const { return sums_[i]; }
  int64_t Count(size_t i) const { return counts_[i]; }
  double Mean(size_t i) const;

 private:
  size_t BucketIndex(TimePoint t);

  Duration bucket_width_;
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_TIME_SERIES_H_
