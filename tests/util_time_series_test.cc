#include "src/util/time_series.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

TEST(TimeSeriesTest, AddGoesToCorrectBucket) {
  TimeSeries ts(Duration::Millis(100));
  ts.Add(TimePoint::FromMicros(50000), 1.0);   // bucket 0
  ts.Add(TimePoint::FromMicros(150000), 2.0);  // bucket 1
  ts.Add(TimePoint::FromMicros(160000), 3.0);  // bucket 1
  ASSERT_EQ(ts.bucket_count(), 2u);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.Sum(1), 5.0);
  EXPECT_EQ(ts.Count(1), 2);
  EXPECT_DOUBLE_EQ(ts.Mean(1), 2.5);
}

TEST(TimeSeriesTest, BucketBoundaries) {
  TimeSeries ts(Duration::Millis(10));
  ts.Add(TimePoint::FromMicros(9999), 1.0);   // bucket 0
  ts.Add(TimePoint::FromMicros(10000), 1.0);  // bucket 1 (boundary belongs to next)
  EXPECT_DOUBLE_EQ(ts.Sum(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.Sum(1), 1.0);
  EXPECT_EQ(ts.BucketStart(1), TimePoint::FromMicros(10000));
}

TEST(TimeSeriesTest, AddSpreadSplitsProportionally) {
  TimeSeries ts(Duration::Millis(100));
  // 250 ms interval starting at 50 ms: buckets get 50/100/100 of the weight.
  ts.AddSpread(TimePoint::FromMicros(50000), TimePoint::FromMicros(300000), 250.0);
  ASSERT_EQ(ts.bucket_count(), 3u);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 50.0);
  EXPECT_DOUBLE_EQ(ts.Sum(1), 100.0);
  EXPECT_DOUBLE_EQ(ts.Sum(2), 100.0);
  EXPECT_DOUBLE_EQ(ts.Sum(0) + ts.Sum(1) + ts.Sum(2), 250.0);
}

TEST(TimeSeriesTest, AddSpreadWithinOneBucket) {
  TimeSeries ts(Duration::Millis(100));
  ts.AddSpread(TimePoint::FromMicros(10000), TimePoint::FromMicros(20000), 7.0);
  ASSERT_EQ(ts.bucket_count(), 1u);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 7.0);
}

TEST(TimeSeriesTest, AddSpreadZeroLengthFallsBackToAdd) {
  TimeSeries ts(Duration::Millis(100));
  ts.AddSpread(TimePoint::FromMicros(10000), TimePoint::FromMicros(10000), 3.0);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 3.0);
}

TEST(TimeSeriesTest, ExactBoundaryAlignedSpread) {
  TimeSeries ts(Duration::Millis(10));
  ts.AddSpread(TimePoint::FromMicros(0), TimePoint::FromMicros(30000), 30.0);
  ASSERT_EQ(ts.bucket_count(), 3u);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.Sum(1), 10.0);
  EXPECT_DOUBLE_EQ(ts.Sum(2), 10.0);
}

}  // namespace
}  // namespace tcs
