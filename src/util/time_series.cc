#include "src/util/time_series.h"

#include <algorithm>
#include <cassert>

namespace tcs {

TimeSeries::TimeSeries(Duration bucket_width) : bucket_width_(bucket_width) {
  assert(bucket_width.ToMicros() > 0);
}

size_t TimeSeries::BucketIndex(TimePoint t) {
  assert(t >= TimePoint::Zero());
  auto i = static_cast<size_t>(t.ToMicros() / bucket_width_.ToMicros());
  if (i >= sums_.size()) {
    sums_.resize(i + 1, 0.0);
    counts_.resize(i + 1, 0);
  }
  return i;
}

void TimeSeries::Add(TimePoint t, double value) {
  size_t i = BucketIndex(t);
  sums_[i] += value;
  ++counts_[i];
}

void TimeSeries::AddSpread(TimePoint start, TimePoint end, double value) {
  assert(end >= start);
  if (start == end) {
    Add(start, value);
    return;
  }
  double span_us = static_cast<double>((end - start).ToMicros());
  TimePoint cursor = start;
  while (cursor < end) {
    size_t i = BucketIndex(cursor);
    TimePoint bucket_end = BucketStart(i) + bucket_width_;
    TimePoint chunk_end = std::min(bucket_end, end);
    double frac = static_cast<double>((chunk_end - cursor).ToMicros()) / span_us;
    sums_[i] += value * frac;
    ++counts_[i];
    cursor = chunk_end;
  }
}

TimePoint TimeSeries::BucketStart(size_t i) const {
  return TimePoint::FromMicros(static_cast<int64_t>(i) * bucket_width_.ToMicros());
}

double TimeSeries::Mean(size_t i) const {
  return counts_[i] > 0 ? sums_[i] / static_cast<double>(counts_[i]) : 0.0;
}

}  // namespace tcs
