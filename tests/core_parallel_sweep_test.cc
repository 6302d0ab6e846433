#include "src/core/parallel_sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/experiments.h"
#include "src/core/report.h"
#include "src/session/os_profile.h"

namespace tcs {
namespace {

TEST(SweepSeedTest, DeterministicAndDistinct) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t seed = SweepSeed(1, i);
    EXPECT_EQ(seed, SweepSeed(1, i));
    EXPECT_NE(seed, 0u);
    seen.insert(seed);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across a sweep's indices
  EXPECT_NE(SweepSeed(1, 0), SweepSeed(2, 0));
}

TEST(ParallelSweepTest, MapReturnsResultsInSubmissionOrder) {
  ParallelSweep sweep(4);
  // Early indices sleep, late ones finish first: order must still be by index.
  std::vector<int> results = sweep.Map(16, [](int i) {
    if (i < 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20 - i * 5));
    }
    return i * i;
  });
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(ParallelSweepTest, WorkerCountDoesNotChangeExperimentResults) {
  // The acceptance contract: N workers produce byte-identical results to the serial
  // path, because per-config seeds depend only on the config index.
  auto run = [](int workers) {
    ParallelSweep sweep(workers);
    return sweep.Map(6, [](int i) {
      OsProfile profile = i / 3 == 0 ? OsProfile::Tse() : OsProfile::LinuxX();
      return RunTypingUnderLoad(profile, (i % 3) * 5, Duration::Seconds(5),
                                SweepSeed(1, static_cast<uint64_t>(i)));
    });
  };
  std::vector<TypingUnderLoadResult> serial = run(1);
  std::vector<TypingUnderLoadResult> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].os_name, parallel[i].os_name);
    EXPECT_EQ(serial[i].sinks, parallel[i].sinks);
    EXPECT_EQ(serial[i].updates, parallel[i].updates);
    // Bit-exact, not approximate: the simulations must be identical.
    EXPECT_EQ(serial[i].avg_stall_ms, parallel[i].avg_stall_ms);
    EXPECT_EQ(serial[i].max_stall_ms, parallel[i].max_stall_ms);
    EXPECT_EQ(serial[i].jitter_ms, parallel[i].jitter_ms);
  }
}

TEST(ParallelSweepTest, WorkerCountDoesNotChangeLbxTraffic) {
  // Every LBX message is sized by LzCodec, whose match table is per thread: concurrent
  // replays must neither share it nor see each other's positions.
  auto run = [](int workers) {
    ParallelSweep sweep(workers);
    return sweep.Map(4, [](int i) {
      ProtocolTrafficResult r = RunAppWorkloadTraffic(
          ProtocolKind::kLbx, SweepSeed(1, static_cast<uint64_t>(i)), 30);
      r.run.wall_ms = 0.0;
      return ToJson(r);
    });
  };
  std::vector<std::string> serial = run(1);
  std::vector<std::string> parallel = run(4);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelSweepTest, ExceptionDoesNotDeadlockOrAbandonOtherConfigs) {
  ParallelSweep sweep(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      sweep.RunIndexed(32,
                       [&completed](int i) {
                         if (i == 5) {
                           throw std::runtime_error("config 5 exploded");
                         }
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  // Every other configuration still ran to completion; the pool drained cleanly.
  EXPECT_EQ(completed.load(), 31);
}

TEST(ParallelSweepTest, LowestIndexExceptionWins) {
  ParallelSweep sweep(8);
  try {
    sweep.RunIndexed(16, [](int i) {
      if (i % 2 == 1) {
        throw std::runtime_error("config " + std::to_string(i));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "config 1");
  }
}

TEST(ParallelSweepTest, HandlesEmptyAndSingleConfigSweeps) {
  ParallelSweep sweep(4);
  EXPECT_TRUE(sweep.Map(0, [](int i) { return i; }).empty());
  std::vector<int> one = sweep.Map(1, [](int i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

}  // namespace
}  // namespace tcs
