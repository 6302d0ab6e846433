#include "src/sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tcs {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The child stream must not simply replay the parent stream.
  Rng parent2(7);
  (void)parent2.Fork();
  uint64_t p = parent.NextU64();
  uint64_t c = child.NextU64();
  EXPECT_NE(p, c);
  // And forking is itself deterministic.
  Rng parent3(7);
  Rng child3 = parent3.Fork();
  EXPECT_EQ(child3.NextU64(), c);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolEdgeProbabilities) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextExponential(5.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(10);
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// FillBytes with a NextBool coin per byte, as it was first written.
void FillBytesPerByteNextBool(Rng& rng, uint8_t* data, size_t len, double redundancy) {
  uint8_t last = static_cast<uint8_t>(rng.NextU64());
  for (size_t i = 0; i < len; ++i) {
    if (rng.NextBool(redundancy)) {
      data[i] = last;
    } else {
      data[i] = static_cast<uint8_t>(rng.NextU64());
      last = data[i];
    }
  }
}

// FillBytes must give the per-byte NextBool loop's bytes and leave the generator where
// that loop does, including at the probabilities NextBool answers without a draw.
TEST(RngTest, FillBytesMatchesPerByteNextBool) {
  const double kProbabilities[] = {-0.5, 0.0, 0x1.0p-60, 0.3, 0.5, 0.7, 0.85, 0.88,
                                   std::nextafter(1.0, 0.0), 1.0, 1.5};
  const size_t kLengths[] = {0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 1000, 2048, 4095,
                             4999, 5000};
  uint64_t seed = 1;
  for (double p : kProbabilities) {
    for (size_t len : kLengths) {
      Rng expected_rng(seed);
      Rng actual_rng(seed);
      ++seed;
      std::vector<uint8_t> expected(len);
      std::vector<uint8_t> actual(len);
      FillBytesPerByteNextBool(expected_rng, expected.data(), len, p);
      actual_rng.FillBytes(actual.data(), len, p);
      ASSERT_EQ(actual, expected) << "p " << p << " length " << len;
      ASSERT_EQ(actual_rng.NextU64(), expected_rng.NextU64()) << "p " << p << " length " << len;
    }
  }
}

TEST(RngTest, FillBytesRedundancyControlsRepeats) {
  Rng rng(11);
  std::vector<uint8_t> noisy(4096);
  std::vector<uint8_t> repetitive(4096);
  rng.FillBytes(noisy.data(), noisy.size(), 0.0);
  rng.FillBytes(repetitive.data(), repetitive.size(), 0.95);
  auto count_repeats = [](const std::vector<uint8_t>& v) {
    int repeats = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      repeats += (v[i] == v[i - 1]) ? 1 : 0;
    }
    return repeats;
  };
  EXPECT_LT(count_repeats(noisy), 100);
  EXPECT_GT(count_repeats(repetitive), 3000);
}

}  // namespace
}  // namespace tcs
