#include "src/mem/pager.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

DiskConfig FastDeterministicDisk() {
  DiskConfig cfg;
  cfg.positioning_mean = Duration::Millis(4);
  cfg.positioning_stddev = Duration::Zero();
  cfg.positioning_min = Duration::Millis(1);
  return cfg;
}

struct PagerFixture {
  explicit PagerFixture(PagerConfig cfg = {})
      : disk(sim, Rng(1), FastDeterministicDisk()), pager(sim, disk, cfg) {}

  Simulator sim;
  Disk disk;
  Pager pager;
};

PagerConfig SmallMemory(size_t frames) {
  PagerConfig cfg;
  cfg.total_frames = frames;
  return cfg;
}

TEST(PagerTest, FirstTouchZeroFillsWithoutIo) {
  PagerFixture f(SmallMemory(16));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  int completions = 0;
  f.pager.Access(*as, 0, false, [&] { ++completions; });
  f.sim.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(f.pager.faults(), 1);
  EXPECT_TRUE(as->IsResident(0));
  EXPECT_EQ(f.disk.reads(), 0);                 // anonymous zero-fill: no disk
  EXPECT_EQ(f.sim.Now(), TimePoint::Zero());    // and no latency

  f.pager.Access(*as, 0, false, [&] { ++completions; });
  f.sim.Run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(f.pager.hits(), 1);
}

TEST(PagerTest, SwappedOutPagePaysDiskOnReaccess) {
  PagerFixture f(SmallMemory(16));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.Prefault(*as, 0, 1);
  f.pager.MarkSwappedOut(*as, 0, 1);
  EXPECT_FALSE(as->IsResident(0));
  EXPECT_TRUE(as->WasEvicted(0));
  bool done = false;
  f.pager.Access(*as, 0, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 1);
  EXPECT_GT(f.sim.Now(), TimePoint::Zero());  // paid disk latency
  EXPECT_TRUE(as->IsResident(0));
}

TEST(PagerTest, EvictedPageNeedsDiskToComeBack) {
  PagerFixture f(SmallMemory(2));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.Access(*as, 0, true, nullptr);
  f.pager.Access(*as, 1, true, nullptr);
  f.pager.Access(*as, 2, true, nullptr);  // evicts page 0 (all zero-fill so far)
  f.sim.Run();
  EXPECT_TRUE(as->WasEvicted(0));
  int64_t reads_before = f.disk.reads();
  f.pager.Access(*as, 0, false, nullptr);  // swap page 0 back in
  f.sim.Run();
  EXPECT_EQ(f.disk.reads(), reads_before + 1);
}

TEST(PagerTest, EvictsLeastRecentlyUsed) {
  PagerFixture f(SmallMemory(3));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.Prefault(*as, 0, 3);  // pages 0,1,2 resident; LRU order 0,1,2
  f.pager.Access(*as, 0, false, nullptr);  // touch 0 -> LRU order 1,2,0
  f.pager.Access(*as, 3, false, nullptr);  // fault -> evicts 1
  f.sim.Run();
  EXPECT_TRUE(as->IsResident(0));
  EXPECT_FALSE(as->IsResident(1));
  EXPECT_TRUE(as->IsResident(2));
  EXPECT_TRUE(as->IsResident(3));
  EXPECT_EQ(f.pager.evictions(), 1);
}

TEST(PagerTest, DirtyEvictionTriggersWriteback) {
  PagerFixture f(SmallMemory(2));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.Access(*as, 0, /*write=*/true, nullptr);
  f.pager.Access(*as, 1, /*write=*/false, nullptr);
  f.pager.Access(*as, 2, /*write=*/false, nullptr);  // evicts dirty page 0
  f.sim.Run();
  EXPECT_EQ(f.pager.dirty_writebacks(), 1);
  EXPECT_EQ(f.disk.writes(), 1);

  // Evicting the clean page 1 must not add another writeback.
  f.pager.Access(*as, 3, false, nullptr);
  f.sim.Run();
  EXPECT_EQ(f.pager.dirty_writebacks(), 1);
}

TEST(PagerTest, StreamingHogEvictsIdleProcess) {
  // The §5.2 pathology: 100-frame memory, a 40-page editor, and a hog whose demand
  // exceeds free memory. After the hog streams through, the editor has been paged out.
  PagerFixture f(SmallMemory(100));
  AddressSpace* editor = f.pager.CreateAddressSpace(true);
  AddressSpace* hog = f.pager.CreateAddressSpace(false);
  f.pager.Prefault(*editor, 0, 40);
  EXPECT_EQ(editor->resident_pages(), 40u);
  for (uint64_t vpn = 0; vpn < 120; ++vpn) {
    f.pager.Access(*hog, vpn, /*write=*/true, nullptr);
  }
  f.sim.Run();
  EXPECT_EQ(editor->resident_pages(), 0u);
  EXPECT_EQ(f.pager.frames_used(), 100u);
}

TEST(PagerTest, InteractiveProtectKeepsEditorResident) {
  PagerConfig cfg = SmallMemory(100);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  PagerFixture f(cfg);
  AddressSpace* editor = f.pager.CreateAddressSpace(true);
  AddressSpace* hog = f.pager.CreateAddressSpace(false);
  f.pager.Prefault(*editor, 0, 40);
  for (uint64_t vpn = 0; vpn < 200; ++vpn) {
    f.pager.Access(*hog, vpn, /*write=*/true, nullptr);
  }
  f.sim.Run();
  // The hog recycled its own pages; the editor survived untouched.
  EXPECT_EQ(editor->resident_pages(), 40u);
  EXPECT_GT(f.pager.protected_skips(), 0);
}

TEST(PagerTest, InteractiveProtectStillAllowsInteractiveGrowth) {
  PagerConfig cfg = SmallMemory(10);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  PagerFixture f(cfg);
  AddressSpace* a = f.pager.CreateAddressSpace(true);
  AddressSpace* b = f.pager.CreateAddressSpace(true);
  f.pager.Prefault(*a, 0, 10);
  // An interactive fault may evict interactive pages (normal LRU among peers).
  f.pager.Access(*b, 0, false, nullptr);
  f.sim.Run();
  EXPECT_EQ(a->resident_pages(), 9u);
  EXPECT_EQ(b->resident_pages(), 1u);
}

TEST(PagerTest, ThrottleDelaysNonInteractiveFaultsWhenSaturated) {
  PagerConfig cfg = SmallMemory(4);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  cfg.throttle_delay = Duration::Millis(50);
  PagerFixture f(cfg);
  AddressSpace* hog = f.pager.CreateAddressSpace(false);
  f.pager.Prefault(*hog, 100, 4);  // memory now saturated
  TimePoint done;
  f.pager.Access(*hog, 0, true, [&] { done = f.sim.Now(); });
  f.sim.Run();
  // 50 ms throttle + ~4.82 ms disk read.
  EXPECT_GE(done, TimePoint::FromMicros(50000));
}

TEST(PagerTest, NoThrottleWhileMemoryFree) {
  PagerConfig cfg = SmallMemory(4);
  cfg.policy = EvictionPolicy::kInteractiveProtect;
  cfg.throttle_delay = Duration::Millis(50);
  PagerFixture f(cfg);
  AddressSpace* hog = f.pager.CreateAddressSpace(false);
  TimePoint done;
  f.pager.Access(*hog, 0, true, [&] { done = f.sim.Now(); });
  f.sim.Run();
  EXPECT_LT(done, TimePoint::FromMicros(10000));
}

TEST(PagerTest, AccessRangeClustersContiguousSwapIns) {
  PagerConfig cfg = SmallMemory(64);
  cfg.cluster_pages = 8;
  PagerFixture f(cfg);
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.MarkSwappedOut(*as, 0, 32);
  bool done = false;
  f.pager.AccessRange(*as, 0, 32, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.pager.faults(), 32);
  EXPECT_EQ(f.disk.reads(), 4);  // 32 pages in 8-page clusters
  EXPECT_EQ(f.disk.pages_read(), 32);
}

TEST(PagerTest, AccessRangeSkipsResidentPages) {
  PagerConfig cfg = SmallMemory(64);
  cfg.cluster_pages = 8;
  PagerFixture f(cfg);
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.MarkSwappedOut(*as, 0, 24);
  f.pager.Prefault(*as, 8, 8);  // middle brought back
  bool done = false;
  f.pager.AccessRange(*as, 0, 24, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 2);  // two swapped-out runs of 8
}

TEST(PagerTest, AccessRangeAllResidentCompletesWithoutIo) {
  PagerFixture f(SmallMemory(64));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.Prefault(*as, 0, 16);
  bool done = false;
  f.pager.AccessRange(*as, 0, 16, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 0);
  EXPECT_EQ(f.sim.Now(), TimePoint::Zero());
}

TEST(PagerTest, SingleClusterSwapInsAreSequentialIos) {
  PagerConfig cfg = SmallMemory(64);
  cfg.cluster_pages = 1;  // Linux 2.0-style single-page swap-in
  PagerFixture f(cfg);
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  f.pager.MarkSwappedOut(*as, 0, 10);
  bool done = false;
  f.pager.AccessRange(*as, 0, 10, false, [&] { done = true; });
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.disk.reads(), 10);
}

TEST(PagerTest, FramesAccounting) {
  PagerFixture f(SmallMemory(8));
  AddressSpace* as = f.pager.CreateAddressSpace(false);
  EXPECT_EQ(f.pager.frames_free(), 8u);
  f.pager.Prefault(*as, 0, 3);
  EXPECT_EQ(f.pager.frames_used(), 3u);
  EXPECT_EQ(f.pager.frames_free(), 5u);
  EXPECT_FALSE(f.pager.IsSaturated());
  f.pager.Prefault(*as, 3, 5);
  EXPECT_TRUE(f.pager.IsSaturated());
}

}  // namespace
}  // namespace tcs
