// Differential tests for the incremental percentile sketch: on random streams with
// queries interleaved at random points, every answer must equal the naive
// sort-and-scan reference — the sketch is an optimization, never an approximation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/metrics/latency.h"
#include "src/util/percentile_sketch.h"

namespace tcs {
namespace {

// The pre-sketch reference: copy, sort, nearest-rank scan.
int64_t ReferenceNearestRank(std::vector<int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  auto n = static_cast<int64_t>(samples.size());
  auto rank = static_cast<int64_t>(q * static_cast<double>(n) + 0.999999999);
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

constexpr double kQuantiles[] = {0.0, 0.01, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0};

TEST(PercentileSketchTest, MatchesSortAndScanAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 gen(seed);
    std::uniform_int_distribution<int64_t> value(0, 2'000'000);
    std::uniform_int_distribution<int> burst(1, 200);

    PercentileSketch<int64_t> sketch;
    std::vector<int64_t> reference;
    // Interleave bursts of appends with full quantile sweeps, so compaction runs with
    // pending deltas of many different sizes (including zero: back-to-back queries).
    for (int round = 0; round < 20; ++round) {
      int n = burst(gen);
      for (int i = 0; i < n; ++i) {
        int64_t v = value(gen);
        sketch.Add(v);
        reference.push_back(v);
      }
      for (double q : kQuantiles) {
        ASSERT_EQ(sketch.NearestRank(q), ReferenceNearestRank(reference, q))
            << "seed " << seed << " round " << round << " q " << q;
      }
      ASSERT_EQ(sketch.Min(), *std::min_element(reference.begin(), reference.end()));
      ASSERT_EQ(sketch.Max(), *std::max_element(reference.begin(), reference.end()));
    }
    ASSERT_EQ(sketch.size(), reference.size());
  }
}

TEST(PercentileSketchTest, DuplicatesAndSortedRuns) {
  PercentileSketch<int64_t> sketch;
  std::vector<int64_t> reference;
  // Pathological shapes for merge-based maintenance: all-equal, ascending, descending.
  for (int i = 0; i < 50; ++i) {
    sketch.Add(7);
    reference.push_back(7);
  }
  EXPECT_EQ(sketch.NearestRank(0.5), 7);
  for (int64_t v = 0; v < 50; ++v) {
    sketch.Add(v);
    reference.push_back(v);
  }
  for (int64_t v = 100; v > 50; --v) {
    sketch.Add(v);
    reference.push_back(v);
  }
  for (double q : kQuantiles) {
    EXPECT_EQ(sketch.NearestRank(q), ReferenceNearestRank(reference, q)) << "q " << q;
  }
}

// The LatencyRecorder rides on the sketch; its percentile answers under interleaved
// Record/Percentile traffic must match the sort-every-query original, and the
// non-percentile statistics must be untouched by query timing.
TEST(LatencyRecorderSketchTest, DifferentialAgainstSortAndScan) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 gen(seed);
    std::uniform_int_distribution<int64_t> us(0, 400'000);

    LatencyRecorder rec;
    std::vector<int64_t> reference;
    for (int i = 0; i < 800; ++i) {
      int64_t v = us(gen);
      rec.Record(Duration::Micros(v));
      reference.push_back(v);
      if (i % 61 == 0) {
        for (double q : {0.5, 0.9, 0.99}) {
          ASSERT_EQ(rec.Percentile(q).ToMicros(), ReferenceNearestRank(reference, q))
              << "seed " << seed << " i " << i << " q " << q;
        }
      }
    }
    // Mean comes from an exact integer accumulator; reproduce it directly.
    int64_t total = 0;
    for (int64_t v : reference) {
      total += v;
    }
    auto n = static_cast<int64_t>(reference.size());
    EXPECT_EQ(rec.Mean().ToMicros(), (total + n / 2) / n);
    // samples_us() stays in arrival order regardless of interleaved queries.
    ASSERT_EQ(rec.samples_us().size(), reference.size());
    EXPECT_EQ(rec.samples_us(), reference);
  }
}

// Regression: empty percentile queries must return the value-initialized sentinel, not
// read past the end of an empty vector. The SLO watchdog's live p99 source polls
// recorders from its first tick — typically before the first interaction has landed —
// so "query before any Add" is a hot path, not an edge case.
TEST(PercentileSketchTest, EmptyQueriesReturnSentinel) {
  PercentileSketch<int64_t> sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.NearestRank(0.5), 0);
  EXPECT_EQ(sketch.NearestRank(0.99), 0);
  EXPECT_EQ(sketch.Min(), 0);
  EXPECT_EQ(sketch.Max(), 0);
  // Still consistent after the first real sample.
  sketch.Add(42);
  EXPECT_EQ(sketch.NearestRank(0.99), 42);

  PercentileSketch<double> dsketch;
  EXPECT_DOUBLE_EQ(dsketch.NearestRank(0.99), 0.0);
}

TEST(LatencyRecorderSketchTest, EmptyRecorderAnswersZeroEverywhere) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0);
  EXPECT_EQ(rec.Percentile(0.5), Duration::Zero());
  EXPECT_EQ(rec.Percentile(0.99), Duration::Zero());
  EXPECT_DOUBLE_EQ(rec.PercentileMs(0.99), 0.0);
  EXPECT_EQ(rec.Mean(), Duration::Zero());
  EXPECT_TRUE(rec.samples_us().empty());
}

}  // namespace
}  // namespace tcs
