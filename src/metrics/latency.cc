#include "src/metrics/latency.h"

namespace tcs {

void LatencyRecorder::Record(Duration latency) {
  int64_t us = latency.ToMicros();
  total_us_ += us;
  stats_.Add(latency.ToMillisF());
  samples_us_.push_back(us);
  sketch_.Add(us);
}

Duration LatencyRecorder::Percentile(double q) const {
  if (sketch_.empty()) {
    return Duration::Zero();
  }
  return Duration::Micros(sketch_.NearestRank(q));
}

double LatencyRecorder::PercentileMs(double q) const {
  return static_cast<double>(Percentile(q).ToMicros()) / 1000.0;
}

Duration LatencyRecorder::Mean() const {
  int64_t n = stats_.count();
  if (n == 0) {
    return Duration::Zero();
  }
  return Duration::Micros((total_us_ + n / 2) / n);
}

StallDetector::StallDetector(Duration expected_period)
    : expected_period_(expected_period) {}

void StallDetector::OnUpdate(TimePoint when) {
  ++updates_;
  if (!have_last_) {
    have_last_ = true;
    last_ = when;
    return;
  }
  Duration gap = when - last_;
  last_ = when;
  Duration stall = gap - expected_period_;
  if (stall > Duration::Zero()) {
    stall_ms_.Add(stall.ToMillisF());
    all_gaps_ms_.Add(stall.ToMillisF());
  } else {
    all_gaps_ms_.Add(0.0);
  }
}

Duration StallDetector::MaxStall() const {
  return Duration::Micros(static_cast<int64_t>(stall_ms_.max() * 1e3));
}

Duration StallDetector::AverageStallAllGaps() const {
  return Duration::Micros(static_cast<int64_t>(all_gaps_ms_.mean() * 1e3));
}

Duration StallDetector::Jitter() const {
  return Duration::Micros(static_cast<int64_t>(all_gaps_ms_.stddev() * 1e3));
}

}  // namespace tcs
