#include "src/mem/disk.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

DiskConfig FixedTimingConfig() {
  DiskConfig cfg;
  cfg.positioning_mean = Duration::Millis(8);
  cfg.positioning_stddev = Duration::Zero();  // deterministic for exact assertions
  cfg.positioning_min = Duration::Millis(2);
  cfg.transfer_rate = BitsPerSecond::Mbps(40);  // 4 KiB page -> 820 us (rounded up)
  return cfg;
}

TEST(DiskTest, SinglePageReadLatency) {
  Simulator sim;
  Disk disk(sim, Rng(1), FixedTimingConfig());
  TimePoint done;
  disk.Read(1, [&] { done = sim.Now(); });
  sim.Run();
  // positioning 8000 us + transfer ceil(4096*8/40) = 820 us (per-us rounding).
  EXPECT_EQ(done, TimePoint::FromMicros(8820));
  EXPECT_EQ(disk.reads(), 1);
  EXPECT_EQ(disk.pages_read(), 1);
}

TEST(DiskTest, ClusteredPagesCheaperThanSeparateReads) {
  Simulator sim;
  Disk disk(sim, Rng(1), FixedTimingConfig());
  TimePoint clustered_done;
  disk.Read(8, [&] { clustered_done = sim.Now(); });
  sim.Run();

  Simulator sim2;
  Disk disk2(sim2, Rng(1), FixedTimingConfig());
  TimePoint separate_done;
  std::function<void(int)> chain = [&](int remaining) {
    disk2.Read(1, [&, remaining] {
      if (remaining > 1) {
        chain(remaining - 1);
      } else {
        separate_done = sim2.Now();
      }
    });
  };
  chain(8);
  sim2.Run();

  EXPECT_LT(clustered_done.ToMicros(), separate_done.ToMicros() / 2);
}

TEST(DiskTest, RequestsQueueFifo) {
  Simulator sim;
  Disk disk(sim, Rng(1), FixedTimingConfig());
  TimePoint first_done;
  TimePoint second_done;
  disk.Read(1, [&] { first_done = sim.Now(); });
  disk.Read(1, [&] { second_done = sim.Now(); });
  sim.Run();
  // Second waits for first: exactly twice the single-read latency.
  EXPECT_EQ(first_done, TimePoint::FromMicros(8820));
  EXPECT_EQ(second_done, TimePoint::FromMicros(17640));
}

TEST(DiskTest, WritesOccupyQueueAheadOfReads) {
  Simulator sim;
  Disk disk(sim, Rng(1), FixedTimingConfig());
  disk.Write(1);  // fire and forget
  TimePoint read_done;
  disk.Read(1, [&] { read_done = sim.Now(); });
  sim.Run();
  EXPECT_EQ(read_done, TimePoint::FromMicros(17640));
  EXPECT_EQ(disk.writes(), 1);
  EXPECT_EQ(disk.pages_written(), 1);
}

TEST(DiskTest, PositioningNeverBelowMinimum) {
  Simulator sim;
  DiskConfig cfg = FixedTimingConfig();
  cfg.positioning_mean = Duration::Millis(1);  // below the 2 ms floor
  cfg.positioning_stddev = Duration::Millis(5);
  Disk disk(sim, Rng(7), cfg);
  for (int i = 0; i < 50; ++i) {
    disk.Read(1, nullptr);
  }
  sim.Run();
  // 50 reads, each at least min positioning (2000) + transfer (820).
  EXPECT_GE(disk.total_busy(), Duration::Micros(50 * 2820));
}

TEST(DiskTest, BusyUntilTracksQueueDepth) {
  Simulator sim;
  Disk disk(sim, Rng(1), FixedTimingConfig());
  EXPECT_FALSE(disk.IsBusyAt(sim.Now()));
  disk.Read(1, [] {});
  EXPECT_TRUE(disk.IsBusyAt(sim.Now()));
  EXPECT_EQ(disk.busy_until(), TimePoint::FromMicros(8820));
  sim.Run();  // clock advances to the read completion
  EXPECT_FALSE(disk.IsBusyAt(sim.Now()));
}

TEST(DiskTest, RandomizedPositioningVaries) {
  Simulator sim;
  DiskConfig cfg = FixedTimingConfig();
  cfg.positioning_stddev = Duration::Millis(3);
  Disk disk(sim, Rng(99), cfg);
  std::vector<int64_t> completion_gaps;
  TimePoint last = TimePoint::Zero();
  for (int i = 0; i < 20; ++i) {
    disk.Read(1, [&] {
      completion_gaps.push_back((sim.Now() - last).ToMicros());
      last = sim.Now();
    });
  }
  sim.Run();
  bool all_same = true;
  for (size_t i = 1; i < completion_gaps.size(); ++i) {
    all_same = all_same && completion_gaps[i] == completion_gaps[0];
  }
  EXPECT_FALSE(all_same);
}

}  // namespace
}  // namespace tcs
