#include "src/cpu/svr4_scheduler.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/cpu/cpu.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

CpuConfig NoSwitchCost() {
  CpuConfig cfg;
  cfg.context_switch_cost = Duration::Zero();
  return cfg;
}

TEST(Svr4SchedulerTest, GuiAndDaemonAreInteractiveByClass) {
  Svr4InteractiveScheduler sched;
  Thread gui(1, "gui", ThreadClass::kGui, 0);
  Thread daemon(2, "d", ThreadClass::kDaemon, 0);
  Thread batch(3, "b", ThreadClass::kBatch, 0);
  EXPECT_TRUE(sched.IsInteractive(gui));
  EXPECT_TRUE(sched.IsInteractive(daemon));
  EXPECT_FALSE(sched.IsInteractive(batch));
}

TEST(Svr4SchedulerTest, InteractiveBandHasAbsolutePriority) {
  Svr4InteractiveScheduler sched;
  Thread batch(1, "b", ThreadClass::kBatch, 0);
  Thread gui(2, "g", ThreadClass::kGui, 0);
  sched.OnReady(batch, WakeReason::kOther);
  sched.OnReady(gui, WakeReason::kInputEvent);
  EXPECT_EQ(sched.PickNext(), &gui);
  EXPECT_EQ(sched.PickNext(), &batch);
}

TEST(Svr4SchedulerTest, InteractiveWakePreemptsBatch) {
  Svr4InteractiveScheduler sched;
  Thread batch(1, "b", ThreadClass::kBatch, 0);
  Thread gui(2, "g", ThreadClass::kGui, 0);
  EXPECT_TRUE(sched.ShouldPreempt(batch, gui));
  EXPECT_FALSE(sched.ShouldPreempt(gui, batch));
  Thread gui2(3, "g2", ThreadClass::kGui, 0);
  EXPECT_FALSE(sched.ShouldPreempt(gui, gui2));  // no preemption within the IA band
}

// Evans et al.'s result: keystroke handling latency remains constant and small even as
// load grows — the property the paper laments is missing from both TSE and Linux.
TEST(Svr4SchedulerTest, KeystrokeHandlingFlatUnderLoad) {
  auto run_with_sinks = [](int sinks) {
    Simulator sim;
    Cpu cpu(sim, std::make_unique<Svr4InteractiveScheduler>(), NoSwitchCost());
    for (int i = 0; i < sinks; ++i) {
      Thread* s = cpu.CreateThread("sink", ThreadClass::kBatch, 0);
      cpu.PostWork(*s, Duration::Seconds(1000));
    }
    Thread* editor = cpu.CreateThread("editor", ThreadClass::kGui, 0);
    TimePoint done = TimePoint::Infinite();
    sim.Schedule(Duration::Millis(25), [&] {
      cpu.PostWork(*editor, Duration::Millis(1), [&] { done = sim.Now(); },
                   WakeReason::kInputEvent);
    });
    sim.RunUntil(TimePoint::FromMicros(2000000));
    return done;
  };
  // Regardless of load, the editor preempts instantly and completes in 1 ms.
  EXPECT_EQ(run_with_sinks(0), TimePoint::FromMicros(26000));
  EXPECT_EQ(run_with_sinks(5), TimePoint::FromMicros(26000));
  EXPECT_EQ(run_with_sinks(20), TimePoint::FromMicros(26000));
}

TEST(Svr4SchedulerTest, BatchThreadEarnsInteractivityByBlocking) {
  Svr4SchedulerConfig cfg;
  Svr4InteractiveScheduler sched(cfg);
  Thread t(1, "chatty", ThreadClass::kBatch, 0);
  EXPECT_FALSE(sched.IsInteractive(t));
  // Repeatedly blocks before quantum exhaustion.
  for (int i = 0; i < 10; ++i) {
    sched.OnBlocked(t);
  }
  EXPECT_GE(t.interactivity, cfg.ia_threshold);
  EXPECT_TRUE(sched.IsInteractive(t));
}

TEST(Svr4SchedulerTest, QuantumBurningDecaysInteractivity) {
  Svr4SchedulerConfig cfg;
  Svr4InteractiveScheduler sched(cfg);
  Thread t(1, "hog", ThreadClass::kBatch, 0);
  t.interactivity = 1.0;
  for (int i = 0; i < 10; ++i) {
    sched.OnQuantumExpired(t);
    ASSERT_NE(sched.PickNext(), nullptr);  // drain the requeue
  }
  EXPECT_LT(t.interactivity, cfg.ia_threshold);
  EXPECT_FALSE(sched.IsInteractive(t));
}

TEST(Svr4SchedulerTest, RoundRobinWithinBands) {
  Svr4InteractiveScheduler sched;
  Thread g1(1, "g1", ThreadClass::kGui, 0);
  Thread g2(2, "g2", ThreadClass::kGui, 0);
  sched.OnReady(g1, WakeReason::kOther);
  sched.OnReady(g2, WakeReason::kOther);
  EXPECT_EQ(sched.PickNext(), &g1);
  sched.OnQuantumExpired(g1);
  EXPECT_EQ(sched.PickNext(), &g2);
}

}  // namespace
}  // namespace tcs
