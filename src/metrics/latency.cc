#include "src/metrics/latency.h"

#include <algorithm>
#include <cmath>

namespace tcs {

void LatencyRecorder::Record(Duration latency) {
  int64_t us = latency.ToMicros();
  if (stats_.count() == 0 || us < min_us_) {
    min_us_ = us;
  }
  if (stats_.count() == 0 || us > max_us_) {
    max_us_ = us;
  }
  total_us_ += us;
  sum_sq_us_ += static_cast<__int128>(us) * us;
  stats_.Add(latency.ToMillisF());
  samples_us_.push_back(us);
  sketch_.Add(us);
  if (latency >= kPerceptionThreshold) {
    ++perceptible_;
  }
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

Duration LatencyRecorder::Jitter() const {
  int64_t n = stats_.count();
  if (n == 0) {
    return Duration::Zero();
  }
  // Population variance via n·Σx² − (Σx)², all in exact 128-bit integer arithmetic; only
  // the final square root goes through floating point.
  __int128 num = static_cast<__int128>(n) * sum_sq_us_ -
                 static_cast<__int128>(total_us_) * total_us_;
  if (num < 0) {
    num = 0;
  }
  double var_us2 =
      static_cast<double>(num) / (static_cast<double>(n) * static_cast<double>(n));
  return Duration::Micros(static_cast<int64_t>(std::sqrt(var_us2) + 0.5));
}

double LatencyRecorder::PerceptibleFraction() const {
  if (stats_.count() == 0) {
    return 0.0;
  }
  return static_cast<double>(perceptible_) / static_cast<double>(stats_.count());
}

double LatencyRecorder::MeanVsPerception() const {
  return stats_.mean() / kPerceptionThreshold.ToMillisF();
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
    ++stall_count_;
    stall_ms_.Add(stall.ToMillisF());
    all_gaps_ms_.Add(stall.ToMillisF());
  } else {
    all_gaps_ms_.Add(0.0);
  }
}

Duration StallDetector::AverageStall() const {
  return Duration::Micros(static_cast<int64_t>(stall_ms_.mean() * 1e3));
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
