#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/periodic.h"

namespace tcs {
namespace {

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<int64_t> times;
  sim.Schedule(Duration::Millis(5), [&] { times.push_back(sim.Now().ToMicros()); });
  sim.Schedule(Duration::Millis(1), [&] { times.push_back(sim.Now().ToMicros()); });
  sim.Run();
  EXPECT_EQ(times, (std::vector<int64_t>{1000, 5000}));
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(5000));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(Duration::Millis(i), [&] { ++fired; });
  }
  sim.RunUntil(TimePoint::FromMicros(5000));
  EXPECT_EQ(fired, 5);  // events at exactly the deadline fire
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(5000));
  sim.Run();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadlineEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(TimePoint::FromMicros(123456));
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(123456));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Duration::Millis(10));
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(20000));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.Schedule(Duration::Millis(1), chain);
    }
  };
  sim.Schedule(Duration::Millis(1), chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(5000));
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.Schedule(Duration::Millis(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // resumes with remaining events
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Duration::Millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Duration::Millis(i + 1), [] {});
  }
  EXPECT_EQ(sim.Run(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, HorizonIsTheNextPendingEvent) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(1), [&] { seen = sim.Horizon(); });
  sim.Schedule(Duration::Millis(3), [] {});
  sim.RunUntil(TimePoint::FromMicros(10000));
  EXPECT_EQ(seen, TimePoint::FromMicros(3000));
}

TEST(SimulatorTest, HorizonWithNothingPendingIsTheDeadline) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(1), [&] { seen = sim.Horizon(); });
  sim.Schedule(Duration::Millis(30), [] {});
  sim.RunUntil(TimePoint::FromMicros(10000));
  EXPECT_EQ(seen, TimePoint::FromMicros(10000));
}

TEST(SimulatorTest, HorizonIgnoresCancelledEvents) {
  Simulator sim;
  TimePoint seen;
  EventId gone = sim.Schedule(Duration::Millis(2), [] {});
  sim.Schedule(Duration::Millis(1), [&] { seen = sim.Horizon(); });
  sim.Schedule(Duration::Millis(4), [] {});
  sim.Cancel(gone);
  sim.RunUntil(TimePoint::FromMicros(10000));
  EXPECT_EQ(seen, TimePoint::FromMicros(4000));
}

TEST(SimulatorTest, HorizonIsNowWhenAnEventIsPendingNow) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(1), [&] {
    sim.Schedule(Duration::Zero(), [] {});
    seen = sim.Horizon();
  });
  sim.RunUntil(TimePoint::FromMicros(10000));
  EXPECT_EQ(seen, TimePoint::FromMicros(1000));
}

TEST(SimulatorTest, HorizonIsNowOnceAStopIsRequested) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(1), [&] {
    sim.RequestStop();
    seen = sim.Horizon();
  });
  sim.Schedule(Duration::Millis(3), [] {});
  sim.Run();
  EXPECT_EQ(seen, TimePoint::FromMicros(1000));
}

TEST(SimulatorTest, HorizonOfRunOnAnEmptyQueue) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(1), [&] { seen = sim.Horizon(); });
  sim.Run();
  // Run() has no deadline: with nothing else pending the horizon is unbounded...
  EXPECT_EQ(seen, TimePoint::Infinite());
  // ...but only while it runs. Between runs, and after Run() on an empty queue, the
  // caller observes the state now.
  EXPECT_EQ(sim.Horizon(), sim.Now());
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_EQ(sim.Horizon(), TimePoint::FromMicros(1000));
}

TEST(PeriodicTaskTest, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<int64_t> fire_times;
  PeriodicTask task(sim, Duration::Millis(10),
                    [&] { fire_times.push_back(sim.Now().ToMicros()); });
  task.Start();
  sim.RunUntil(TimePoint::FromMicros(35000));
  EXPECT_EQ(fire_times, (std::vector<int64_t>{0, 10000, 20000, 30000}));
  task.Stop();
}

TEST(PeriodicTaskTest, InitialDelayOffsetsPhase) {
  Simulator sim;
  std::vector<int64_t> fire_times;
  PeriodicTask task(sim, Duration::Millis(10),
                    [&] { fire_times.push_back(sim.Now().ToMicros()); });
  task.Start(Duration::Millis(3));
  sim.RunUntil(TimePoint::FromMicros(25000));
  EXPECT_EQ(fire_times, (std::vector<int64_t>{3000, 13000, 23000}));
  task.Stop();
}

TEST(PeriodicTaskTest, StopFromWithinTick) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, Duration::Millis(1), [&] {
    if (++count == 3) {
      task.Stop();
    }
  });
  task.Start();
  sim.RunUntil(TimePoint::FromMicros(100000));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.IsRunning());
}

TEST(PeriodicTaskTest, DestructionCancelsPending) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, Duration::Millis(1), [&] { ++count; });
    task.Start();
    sim.RunUntil(TimePoint::FromMicros(2500));
  }
  sim.RunUntil(TimePoint::FromMicros(10000));
  EXPECT_EQ(count, 3);  // fired at 0, 1ms, 2ms only
}

}  // namespace
}  // namespace tcs
