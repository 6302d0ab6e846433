#include <gtest/gtest.h>

#include <memory>

#include "src/cpu/linux_scheduler.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/x_protocol.h"
#include "src/workload/animation.h"
#include "src/workload/app_script.h"
#include "src/workload/memory_hog.h"
#include "src/workload/sink.h"
#include "src/workload/typist.h"

namespace tcs {
namespace {

struct ProtoFixture {
  ProtoFixture()
      : link(sim),
        display(link, HeaderModel::TcpIp()),
        input(link, HeaderModel::TcpIp()),
        tap(Duration::Millis(100)) {}

  Simulator sim;
  Link link;
  MessageSender display;
  MessageSender input;
  ProtoTap tap;
};

TEST(SinkTest, SinkKeepsCpuBusyForever) {
  Simulator sim;
  CpuConfig cfg;
  cfg.context_switch_cost = Duration::Zero();
  Cpu cpu(sim, std::make_unique<LinuxScheduler>(), cfg);
  SinkProcess sink(cpu, 0);
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  EXPECT_FALSE(cpu.IsIdle());
  EXPECT_EQ(cpu.busy_time(), Duration::Seconds(10));
  EXPECT_EQ(sink.thread()->state(), ThreadState::kRunning);
}

TEST(SinkTest, StartSinksIncreasesQueueLength) {
  Simulator sim;
  Cpu cpu(sim, std::make_unique<LinuxScheduler>());
  StartSinks(cpu, 5, 0);
  // One runs, four queue.
  EXPECT_EQ(cpu.scheduler().ReadyCount(), 4u);
}

TEST(TypistTest, FiresAtTwentyHertz) {
  Simulator sim;
  int strokes = 0;
  Typist typist(sim, [&] { ++strokes; });
  typist.Start();
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(1));
  typist.Stop();
  EXPECT_EQ(strokes, 21);  // t = 0, 50ms, ..., 1000ms inclusive
  EXPECT_EQ(typist.keystrokes(), 21);
}

TEST(MemoryHogTest, StreamsAndWraps) {
  Simulator sim;
  Disk disk(sim, Rng(1));
  Pager pager(sim, disk, PagerConfig{.total_frames = 64});
  MemoryHogConfig cfg;
  cfg.region_pages = 32;
  cfg.touch_cpu = Duration::Micros(100);
  MemoryHog hog(sim, pager, cfg);
  hog.Start();
  sim.RunUntil(TimePoint::Zero() + Duration::Millis(10));
  // One touch per 100 us at t = 0, 100 us, ..., 10 ms inclusive: the touch due at the
  // deadline runs, the one after it does not. It wrapped the 32-page region three times.
  EXPECT_EQ(hog.pages_touched(), 101);
  EXPECT_EQ(hog.address_space()->resident_pages(), 32u);
}

TEST(MemoryHogTest, EvictsOlderPagesWhenRegionExceedsMemory) {
  Simulator sim;
  Disk disk(sim, Rng(1));
  Pager pager(sim, disk, PagerConfig{.total_frames = 50});
  AddressSpace* victim = pager.CreateAddressSpace(true);
  pager.Prefault(*victim, 0, 20);
  MemoryHogConfig cfg;
  cfg.region_pages = 40;  // 20 free + steals 10
  MemoryHog hog(sim, pager, cfg);
  hog.Start();
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(2));
  EXPECT_EQ(victim->resident_pages(), 10u);
}

TEST(AnimationTest, LoopsThroughFrames) {
  ProtoFixture f;
  auto rdp = std::make_unique<RdpProtocol>(f.sim, f.display, f.input, &f.tap, Rng(1));
  AnimationConfig cfg;
  cfg.frame_count = 4;
  cfg.frame_period = Duration::Millis(100);
  Animation anim(f.sim, *rdp, cfg);
  anim.Start();
  f.sim.RunUntil(TimePoint::Zero() + Duration::Millis(1000));
  anim.Stop();
  EXPECT_EQ(anim.frames_drawn(), 11);  // t = 0, 100, ..., 1000
  // 4 distinct frames: 4 misses then hits.
  EXPECT_EQ(rdp->bitmap_cache().misses(), 4);
  EXPECT_EQ(rdp->bitmap_cache().hits(), 7);
}

TEST(AnimationTest, FrameHashesDistinctAcrossAnimations) {
  ProtoFixture f;
  auto rdp = std::make_unique<RdpProtocol>(f.sim, f.display, f.input, &f.tap, Rng(1));
  AnimationConfig a;
  a.id = 1;
  AnimationConfig b;
  b.id = 2;
  Animation anim_a(f.sim, *rdp, a);
  Animation anim_b(f.sim, *rdp, b);
  for (const auto& frame_a : anim_a.frames()) {
    for (const auto& frame_b : anim_b.frames()) {
      EXPECT_NE(frame_a.content_hash, frame_b.content_hash);
    }
  }
}

TEST(AppScriptTest, DeterministicForSameSeed) {
  AppScript a = AppScript::WordProcessor(Rng(7), 100);
  AppScript b = AppScript::WordProcessor(Rng(7), 100);
  EXPECT_EQ(a.TotalInputEvents(), b.TotalInputEvents());
  EXPECT_EQ(a.TotalDrawCommands(), b.TotalDrawCommands());
  EXPECT_EQ(a.TotalDuration(), b.TotalDuration());
}

TEST(AppScriptTest, DifferentSeedsDiffer) {
  AppScript a = AppScript::WordProcessor(Rng(7), 200);
  AppScript b = AppScript::WordProcessor(Rng(8), 200);
  EXPECT_NE(a.TotalInputEvents(), b.TotalInputEvents());
}

TEST(AppScriptTest, AllThreeAppsProduceWork) {
  for (auto script : {AppScript::WordProcessor(Rng(1), 50),
                      AppScript::PhotoEditor(Rng(1), 50),
                      AppScript::ControlPanel(Rng(1), 50)}) {
    EXPECT_EQ(script.steps().size(), 50u) << script.name();
    EXPECT_GT(script.TotalInputEvents(), 0u) << script.name();
    EXPECT_GT(script.TotalDrawCommands(), 50u) << script.name();
    EXPECT_GT(script.TotalDuration(), Duration::Seconds(10)) << script.name();
  }
}

TEST(AppScriptTest, ReplayDrivesProtocol) {
  ProtoFixture f;
  auto x = std::make_unique<XProtocol>(f.sim, f.display, f.input, &f.tap, Rng(2));
  AppScript script = AppScript::ControlPanel(Rng(3), 50);
  bool done = false;
  script.Replay(f.sim, *x, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(f.tap.messages(Channel::kDisplay), 0);
  EXPECT_GT(f.tap.messages(Channel::kInput), 0);
  EXPECT_EQ(f.sim.Now(), TimePoint::Zero() + script.TotalDuration());
}

}  // namespace
}  // namespace tcs
