#include "src/sim/units.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

TEST(BytesTest, FactoriesAndArithmetic) {
  EXPECT_EQ(Bytes::Of(10).count(), 10);
  EXPECT_EQ(Bytes::KiB(2).count(), 2048);
  EXPECT_EQ(Bytes::MiB(1).count(), 1048576);
  EXPECT_EQ((Bytes::Of(3) + Bytes::Of(4)).count(), 7);
  EXPECT_EQ((Bytes::Of(10) - Bytes::Of(4)).count(), 6);
  EXPECT_EQ((Bytes::Of(10) * 3).count(), 30);
  EXPECT_EQ((3 * Bytes::Of(10)).count(), 30);
  EXPECT_DOUBLE_EQ(Bytes::KiB(3) / Bytes::KiB(2), 1.5);
  Bytes b = Bytes::Of(5);
  b += Bytes::Of(5);
  EXPECT_EQ(b.count(), 10);
  b -= Bytes::Of(3);
  EXPECT_EQ(b.count(), 7);
}

TEST(BytesTest, ToString) {
  EXPECT_EQ(Bytes::Of(512).ToString(), "512B");
  EXPECT_EQ(Bytes::KiB(2).ToString(), "2.00KiB");
  EXPECT_EQ(Bytes::MiB(3).ToString(), "3.00MiB");
}

TEST(BitsPerSecondTest, Factories) {
  EXPECT_EQ(BitsPerSecond::Mbps(10).bps(), 10000000);
  EXPECT_EQ(BitsPerSecond::Kbps(56).bps(), 56000);
  EXPECT_DOUBLE_EQ(BitsPerSecond::MbpsF(1.5).ToMbpsF(), 1.5);
}

TEST(TransmissionDelayTest, ExactValues) {
  // 1500 bytes at 10 Mbps = 12000 bits / 10 bits-per-us = 1200 us.
  EXPECT_EQ(TransmissionDelay(Bytes::Of(1500), BitsPerSecond::Mbps(10)),
            Duration::Micros(1200));
  // 64 bytes at 10 Mbps = 512 bits -> 51.2 us, rounded up to 52.
  EXPECT_EQ(TransmissionDelay(Bytes::Of(64), BitsPerSecond::Mbps(10)),
            Duration::Micros(52));
  EXPECT_EQ(TransmissionDelay(Bytes::Zero(), BitsPerSecond::Mbps(10)), Duration::Zero());
}

TEST(TransmissionDelayTest, RoundsUpNeverDown) {
  // 1 byte at 9 Mbps = 8 bits -> 0.888.. us -> 1 us.
  EXPECT_EQ(TransmissionDelay(Bytes::Of(1), BitsPerSecond::Mbps(9)), Duration::Micros(1));
}

}  // namespace
}  // namespace tcs
