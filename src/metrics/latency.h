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
  // The rounded integer mean of the recorded microsecond values: exact, with no double
  // round-trip through milliseconds.
  Duration Mean() const;

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
  int64_t total_us_ = 0;  // exact sum of the microsecond samples
};

class StallDetector {
 public:
  explicit StallDetector(Duration expected_period = Duration::Millis(50));

  // Feed each display-update arrival (or emission) time, in order.
  void OnUpdate(TimePoint when);

  // Stall lengths (inter-arrival minus the expected period, clamped at zero).
  int64_t updates() const { return updates_; }
  Duration MaxStall() const;
  // Average over *all* gaps (stall length zero when on time) — what Figure 3 plots.
  Duration AverageStallAllGaps() const;
  Duration Jitter() const;

 private:
  Duration expected_period_;
  bool have_last_ = false;
  TimePoint last_;
  int64_t updates_ = 0;
  RunningStats stall_ms_;      // only gaps that stalled
  RunningStats all_gaps_ms_;   // every gap's stall length (zero when on time)
};

}  // namespace tcs

#endif  // TCS_SRC_METRICS_LATENCY_H_
