#include "src/metrics/latency.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

TEST(LatencyRecorderTest, BasicStats) {
  LatencyRecorder rec;
  rec.Record(Duration::Millis(10));
  rec.Record(Duration::Millis(30));
  rec.Record(Duration::Millis(20));
  EXPECT_EQ(rec.count(), 3);
  EXPECT_EQ(rec.Mean(), Duration::Millis(20));
}

TEST(LatencyRecorderTest, SingleSampleRoundTripsExactly) {
  LatencyRecorder rec;
  // 0.333 ms is not representable in binary floating point; a double-millisecond
  // round-trip truncates it to 332 µs. The integer accumulator keeps it exact.
  rec.Record(Duration::Micros(333));
  EXPECT_EQ(rec.Mean(), Duration::Micros(333));
}

TEST(LatencyRecorderTest, MeanRoundsToNearestMicrosecond) {
  LatencyRecorder rec;
  rec.Record(Duration::Micros(333));
  rec.Record(Duration::Micros(334));
  // (333 + 334) / 2 = 333.5, rounded up.
  EXPECT_EQ(rec.Mean(), Duration::Micros(334));
}

TEST(StallDetectorTest, OnTimeUpdatesProduceNoStalls) {
  StallDetector det;
  for (int i = 0; i <= 20; ++i) {
    det.OnUpdate(TimePoint::FromMicros(i * 50000));
  }
  EXPECT_EQ(det.updates(), 21);
  EXPECT_EQ(det.MaxStall(), Duration::Zero());
  EXPECT_EQ(det.AverageStallAllGaps(), Duration::Zero());
}

TEST(StallDetectorTest, LateUpdateMeasuredAsStall) {
  StallDetector det;
  det.OnUpdate(TimePoint::FromMicros(0));
  det.OnUpdate(TimePoint::FromMicros(50000));   // on time
  det.OnUpdate(TimePoint::FromMicros(350000));  // 300 ms gap: 250 ms stall
  EXPECT_EQ(det.MaxStall(), Duration::Millis(250));
  // Average over all gaps: (0 + 250) / 2.
  EXPECT_EQ(det.AverageStallAllGaps(), Duration::Millis(125));
}

TEST(StallDetectorTest, EarlyUpdateClampsToZero) {
  StallDetector det;
  det.OnUpdate(TimePoint::FromMicros(0));
  det.OnUpdate(TimePoint::FromMicros(20000));  // 30 ms early: not a negative stall
  EXPECT_EQ(det.MaxStall(), Duration::Zero());
  EXPECT_EQ(det.AverageStallAllGaps(), Duration::Zero());
}

TEST(StallDetectorTest, JitterZeroWhenConsistent) {
  StallDetector det;
  for (int i = 0; i < 10; ++i) {
    det.OnUpdate(TimePoint::FromMicros(i * 100000));  // consistently 50 ms late
  }
  EXPECT_EQ(det.Jitter(), Duration::Zero());
  EXPECT_EQ(det.AverageStallAllGaps(), Duration::Millis(50));
}

TEST(StallDetectorTest, CustomExpectedPeriod) {
  StallDetector det(Duration::Millis(100));
  det.OnUpdate(TimePoint::FromMicros(0));
  det.OnUpdate(TimePoint::FromMicros(100000));
  EXPECT_EQ(det.MaxStall(), Duration::Zero());
}

TEST(LatencyRecorderTest, PercentileIsExactToTheMicrosecond) {
  LatencyRecorder rec;
  rec.Record(Duration::Micros(333));
  EXPECT_EQ(rec.Percentile(0.50), Duration::Micros(333));
  EXPECT_EQ(rec.Percentile(0.99), Duration::Micros(333));
  EXPECT_EQ(rec.PercentileMs(0.50), 0.333);
}

TEST(LatencyRecorderTest, NearestRankPercentileReturnsObservedSamples) {
  LatencyRecorder rec;
  // Out of order on purpose: Percentile sorts lazily.
  for (int64_t us : {900, 100, 500, 300, 700}) {
    rec.Record(Duration::Micros(us));
  }
  // Nearest rank over n=5: rank = ceil(q*n).
  EXPECT_EQ(rec.Percentile(0.20), Duration::Micros(100));
  EXPECT_EQ(rec.Percentile(0.50), Duration::Micros(500));
  EXPECT_EQ(rec.Percentile(0.60), Duration::Micros(500));
  EXPECT_EQ(rec.Percentile(0.61), Duration::Micros(700));
  EXPECT_EQ(rec.Percentile(0.99), Duration::Micros(900));
  EXPECT_EQ(rec.Percentile(1.00), Duration::Micros(900));
  // Recording after a percentile query re-sorts on the next query.
  rec.Record(Duration::Micros(1));
  EXPECT_EQ(rec.Percentile(0.01), Duration::Micros(1));
}

TEST(LatencyRecorderTest, PercentileOfEmptyRecorderIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Percentile(0.99), Duration::Zero());
  EXPECT_EQ(rec.PercentileMs(0.99), 0.0);
}

TEST(LatencyRecorderTest, SamplesKeepExactMicroseconds) {
  LatencyRecorder rec;
  rec.Record(Duration::Micros(1001));
  rec.Record(Duration::Micros(999));
  ASSERT_EQ(rec.samples_us().size(), 2u);
  EXPECT_EQ(rec.samples_us()[0], 1001);
  EXPECT_EQ(rec.samples_us()[1], 999);
  EXPECT_EQ(rec.Mean(), Duration::Micros(1000));
}

}  // namespace
}  // namespace tcs
