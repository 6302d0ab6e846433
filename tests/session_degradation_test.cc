// Property suite for the backpressure-driven DegradationController: monotone immediate
// upshifts, hysteretic no-flap recovery (five calm polls below half the current level's
// threshold), deterministic (byte-identical) transition logs across reruns, per-level
// lever engagement, and config validation.

#include <gtest/gtest.h>

#include <vector>

#include "src/session/degradation.h"
#include "src/util/config_error.h"

namespace tcs {
namespace {

DegradationConfig TestConfig() {
  DegradationConfig cfg;
  cfg.enabled = true;
  cfg.level_step = Bytes::KiB(10);
  return cfg;
}

// Consecutive calm polls the ladder needs before it steps down one level.
constexpr int kRecoverPolls = 5;

// A controller plus the synthetic pressure knob the tests turn.
struct Rig {
  Simulator sim;
  int64_t pressure = 0;
  DegradationController ctl;

  explicit Rig(DegradationConfig cfg = TestConfig())
      : ctl(sim, cfg, [this] { return pressure; }) {}

  void PollAt(int64_t pressure_bytes) {
    pressure = pressure_bytes;
    ctl.Poll();
  }
};

TEST(DegradationConfigTest, ValidationRejectsBrokenConfigs) {
  DegradationConfig cfg = TestConfig();
  cfg.level_step = Bytes::Zero();
  EXPECT_THROW(Validated(cfg), ConfigError);
  cfg.level_step = Bytes::Of(-1);
  EXPECT_THROW(Validated(cfg), ConfigError);

  EXPECT_NO_THROW(Validated(TestConfig()));
}

TEST(DegradationControllerTest, UpshiftIsImmediateAndMonotoneInPressure) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  // One poll at 3 steps of pressure jumps straight to level 3 — no laddering up.
  rig.PollAt(3 * step);
  EXPECT_EQ(rig.ctl.level(), 3);
  EXPECT_EQ(rig.ctl.upshifts(), 1);
  // Higher pressure while degraded keeps climbing; the level is min(p/step, max).
  rig.PollAt(10 * step);
  EXPECT_EQ(rig.ctl.level(), kMaxDegradationLevel);
  // Pressure above the top of the ladder clamps, never overflows.
  rig.PollAt(1000 * step);
  EXPECT_EQ(rig.ctl.level(), kMaxDegradationLevel);
}

TEST(DegradationControllerTest, RecoveryIsHystereticAndStepsOneLevel) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  rig.PollAt(2 * step);
  ASSERT_EQ(rig.ctl.level(), 2);
  // Recovery from level 2 needs pressure below 0.5 * 2 * step = 1 step, for 5 polls.
  for (int i = 0; i < kRecoverPolls - 1; ++i) {
    rig.PollAt(step - 1);
  }
  EXPECT_EQ(rig.ctl.level(), 2);  // only 4 calm polls so far
  rig.PollAt(step - 1);
  EXPECT_EQ(rig.ctl.level(), 1);  // exactly one level, not straight to 0
  EXPECT_EQ(rig.ctl.downshifts(), 1);
}

TEST(DegradationControllerTest, BoundaryPressureNeverFlaps) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  rig.PollAt(2 * step);
  ASSERT_EQ(rig.ctl.level(), 2);
  // Hovering exactly at the recovery threshold (not strictly below) keeps the level:
  // a link sitting on a boundary must not oscillate.
  for (int i = 0; i < 50; ++i) {
    rig.PollAt(step);  // == half of 2 * step, not below it
    EXPECT_EQ(rig.ctl.level(), 2);
  }
  EXPECT_EQ(rig.ctl.transitions().size(), 1u);  // just the original upshift
}

TEST(DegradationControllerTest, CalmStreakResetsOnPressureSpike) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  rig.PollAt(step);
  ASSERT_EQ(rig.ctl.level(), 1);
  // Four calm polls, then a spike below the upshift threshold: the streak restarts.
  for (int i = 0; i < kRecoverPolls - 1; ++i) {
    rig.PollAt(0);
  }
  rig.PollAt(step - 1);  // not calm (>= 0.5 * step), not an upshift either
  for (int i = 0; i < kRecoverPolls - 1; ++i) {
    rig.PollAt(0);
  }
  EXPECT_EQ(rig.ctl.level(), 1);
  rig.PollAt(0);  // fifth consecutive calm poll
  EXPECT_EQ(rig.ctl.level(), 0);
}

TEST(DegradationControllerTest, TransitionLogIsByteIdenticalAcrossReruns) {
  // The same pressure schedule through two independent controllers produces the same
  // transition log, field for field — the determinism the flight recorder relies on.
  std::vector<int64_t> schedule;
  const int64_t step = Bytes::KiB(10).count();
  for (int i = 0; i < 40; ++i) {
    schedule.push_back(((i * 7) % 5) * step + (i % 3));
  }
  auto run = [&schedule] {
    Rig rig;
    for (int64_t p : schedule) {
      rig.PollAt(p);
    }
    return rig.ctl.transitions();
  };
  std::vector<DegradationTransition> a = run();
  std::vector<DegradationTransition> b = run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
    EXPECT_EQ(a[i].pressure_bytes, b[i].pressure_bytes);
  }
}

TEST(DegradationControllerTest, LeversEngageByLevel) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  // Level 0: everything off.
  EXPECT_EQ(rig.ctl.CoalesceHold(), Duration::Zero());
  EXPECT_FALSE(rig.ctl.ShouldDropAnimationFrame());
  EXPECT_DOUBLE_EQ(rig.ctl.CacheBoost(), 1.0);
  EXPECT_FALSE(rig.ctl.BackgroundPaused());

  rig.PollAt(step);  // level 1: coalesce only
  EXPECT_EQ(rig.ctl.CoalesceHold(), Duration::Millis(40));
  EXPECT_FALSE(rig.ctl.ShouldDropAnimationFrame());
  EXPECT_DOUBLE_EQ(rig.ctl.CacheBoost(), 1.0);

  rig.PollAt(2 * step);  // level 2: + animation thinning, keep 1 in 3
  int dropped = 0;
  for (int i = 0; i < 9; ++i) {
    if (rig.ctl.ShouldDropAnimationFrame()) {
      ++dropped;
    }
  }
  EXPECT_EQ(dropped, 6);  // exactly 2 of every 3
  EXPECT_EQ(rig.ctl.animation_frames_dropped(), 6);
  EXPECT_DOUBLE_EQ(rig.ctl.CacheBoost(), 1.0);

  rig.PollAt(3 * step);  // level 3: + hard caching
  EXPECT_DOUBLE_EQ(rig.ctl.CacheBoost(), 2.0);
  EXPECT_FALSE(rig.ctl.BackgroundPaused());

  rig.PollAt(4 * step);  // level 4: + background pause
  EXPECT_TRUE(rig.ctl.BackgroundPaused());
}

TEST(DegradationControllerTest, DegradedTimeTracksClosedAndOpenIntervals) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  Simulator& sim = rig.sim;
  // Degrade at t=1s, recover fully at t=2s, degrade again at t=3s, sample at t=4s.
  sim.RunFor(Duration::Seconds(1));
  rig.PollAt(step);
  sim.RunFor(Duration::Seconds(1));
  for (int i = 0; i < kRecoverPolls; ++i) {
    rig.PollAt(0);
  }
  ASSERT_EQ(rig.ctl.level(), 0);
  sim.RunFor(Duration::Seconds(1));
  rig.PollAt(2 * step);
  sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(rig.ctl.DegradedTimeThrough(sim.Now()), Duration::Seconds(2));
}

TEST(DegradationControllerTest, OnTransitionFiresWithLoggedLevels) {
  Rig rig;
  const int64_t step = Bytes::KiB(10).count();
  std::vector<std::pair<int, int>> seen;
  rig.ctl.set_on_transition(
      [&seen](int from, int to, TimePoint) { seen.push_back({from, to}); });
  rig.PollAt(2 * step);
  for (int i = 0; i < kRecoverPolls; ++i) {
    rig.PollAt(0);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<int, int>{0, 2}));
  EXPECT_EQ(seen[1], (std::pair<int, int>{2, 1}));
}

}  // namespace
}  // namespace tcs
