// User-perceived-latency metrics (§3.2).
//
// The paper's quality model: a system degrades when (1) an operation's latency exceeds the
// threshold of human perception, (2) the number of such operations grows, or (3) latency
// is inconsistent (jitter). Humans are "generally irritated by latencies 100ms or
// greater". LatencyRecorder scores a stream of operation latencies against that model.
//
// StallDetector implements the §4.2.2 measurement: under 20 Hz character repeat the server
// should emit a display update every 50 ms; an "interactive stall" is the excess of an
// inter-arrival gap over that period.

#ifndef TCS_SRC_METRICS_LATENCY_H_
#define TCS_SRC_METRICS_LATENCY_H_

#include <vector>

#include "src/sim/time.h"
#include "src/util/percentile_sketch.h"
#include "src/util/stats.h"

namespace tcs {

// The human perception threshold the paper uses throughout.
inline constexpr Duration kPerceptionThreshold = Duration::Millis(100);

class LatencyRecorder {
 public:
  void Record(Duration latency);

  int64_t count() const { return stats_.count(); }
  // Mean/Min/Max/Jitter are computed from integer-microsecond accumulators, so they are
  // exact (no double round-trip through milliseconds): Mean is the rounded integer mean
  // and Jitter the population standard deviation of the recorded microsecond values.
  Duration Mean() const;
  Duration Max() const { return Duration::Micros(max_us_); }
  Duration Min() const { return Duration::Micros(min_us_); }
  // Standard deviation — the jitter criterion.
  Duration Jitter() const;
  // Operations above the perception threshold (degradation mode 2).
  int64_t perceptible_count() const { return perceptible_; }
  double PerceptibleFraction() const;
  // Mean latency as a multiple of the perception threshold ("40 times the threshold of
  // human perception").
  double MeanVsPerception() const;

  // Exact nearest-rank percentile over the recorded microsecond samples: the result is
  // always an actually observed latency, to the microsecond. (Samples used to be stored
  // as millisecond doubles, which quantized p50/p99 — ToMillisF is lossy for most
  // microsecond values — so percentiles now stay integral until serialization.)
  // Queries interleaved with Record() pay only an incremental merge, not a full re-sort.
  Duration Percentile(double q) const;
  double PercentileMs(double q) const;  // derived from Percentile at serialization time

  const RunningStats& raw() const { return stats_; }
  const std::vector<int64_t>& samples_us() const { return samples_us_; }

 private:
  RunningStats stats_;  // milliseconds, for raw() consumers (means/extremes only)
  // Microsecond samples in arrival order (samples_us() contract) plus the incremental
  // sketch Percentile() queries against.
  std::vector<int64_t> samples_us_;
  PercentileSketch<int64_t> sketch_;
  int64_t perceptible_ = 0;
  // Exact accumulators (microseconds). The sum of squares uses 128-bit storage so even
  // long runs of 100+ second latencies cannot overflow.
  int64_t total_us_ = 0;
  int64_t min_us_ = 0;
  int64_t max_us_ = 0;
  __int128 sum_sq_us_ = 0;
};

class StallDetector {
 public:
  explicit StallDetector(Duration expected_period = Duration::Millis(50));

  // Feed each display-update arrival (or emission) time, in order.
  void OnUpdate(TimePoint when);

  // Stall lengths (inter-arrival minus the expected period, clamped at zero).
  int64_t updates() const { return updates_; }
  int64_t stall_count() const { return stall_count_; }
  Duration AverageStall() const;
  Duration MaxStall() const;
  // Average over *all* gaps (stall length zero when on time) — what Figure 3 plots.
  Duration AverageStallAllGaps() const;
  Duration Jitter() const;

 private:
  Duration expected_period_;
  bool have_last_ = false;
  TimePoint last_;
  int64_t updates_ = 0;
  int64_t stall_count_ = 0;
  RunningStats stall_ms_;      // only gaps that stalled
  RunningStats all_gaps_ms_;   // every gap's stall length (zero when on time)
};

}  // namespace tcs

#endif  // TCS_SRC_METRICS_LATENCY_H_
