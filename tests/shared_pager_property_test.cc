// Property tests for cross-session page sharing (§5.1.1) and in-flight page-in
// coalescing. Randomized over seeds and session counts: shared text must be resident
// once no matter how many sessions map it, physical memory must never be exceeded, and
// an evicted shared page must stall every mapping session exactly once (one disk I/O).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/mem/pager.h"
#include "src/session/os_profile.h"
#include "src/session/server.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

class SharedPagerProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPagerProperty,
                         ::testing::Values<uint64_t>(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

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

// Pages a login pays once per server for a profile's shared text, mirroring the
// server's per-process rounding.
size_t SharedTextPages(const OsProfile& profile) {
  size_t pages = 0;
  for (const auto& proc : profile.login_processes) {
    if (proc.shared_text.count() > 0) {
      pages += static_cast<size_t>(
          std::max<int64_t>(1, (proc.shared_text.count() + 4095) / 4096));
    }
  }
  return pages;
}

// --- Physical memory is a hard ceiling: no random mix of private and shared demand
// can push the resident count past the frame pool.
TEST_P(SharedPagerProperty, ResidentFramesNeverExceedPhysicalMemory) {
  Rng rng(GetParam());
  PagerFixture f(SmallMemory(64));
  std::vector<AddressSpace*> spaces;
  for (int step = 0; step < 200; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.2) {
      std::string key = "seg:" + std::to_string(rng.NextInt(0, 5));
      spaces.push_back(f.pager.AcquireShared(key, rng.NextBool(0.5)).space);
    } else if (dice < 0.5) {
      spaces.push_back(
          f.pager.CreateAddressSpace(rng.NextBool(0.3)));
    } else if (!spaces.empty()) {
      AddressSpace* as = spaces[static_cast<size_t>(rng.NextBelow(spaces.size()))];
      uint64_t first = static_cast<uint64_t>(rng.NextInt(0, 100));
      size_t count = static_cast<size_t>(rng.NextInt(1, 40));
      f.pager.AccessRange(*as, first, count, rng.NextBool(0.3), nullptr);
    }
    ASSERT_LE(f.pager.frames_used(), f.pager.total_frames());
    if (step % 20 == 0) {
      f.sim.Run();
      ASSERT_LE(f.pager.frames_used(), f.pager.total_frames());
    }
  }
  f.sim.Run();
  EXPECT_LE(f.pager.frames_used(), f.pager.total_frames());
}

// --- §5.1.1: shared text is resident once however many sessions log in. Every login
// after the first pays exactly the same private bill, and the difference between the
// first and later bills is exactly the profile's shared text.
TEST_P(SharedPagerProperty, SharedTextResidentOnceAcrossSessions) {
  Rng rng(GetParam());
  int sessions = 2 + static_cast<int>(rng.NextBelow(4));  // 2..5
  Simulator sim;
  Server server(sim, OsProfile::Tse());
  size_t baseline = server.pager().frames_used();
  std::vector<size_t> deltas;
  size_t before = baseline;
  for (int i = 0; i < sessions; ++i) {
    server.Login();
    size_t after = server.pager().frames_used();
    deltas.push_back(after - before);
    before = after;
  }
  size_t shared_pages = SharedTextPages(server.profile());
  ASSERT_GT(shared_pages, 0u);
  // First login pays shared text once; every later login pays private-only.
  EXPECT_EQ(deltas.front() - deltas[1], shared_pages);
  for (size_t i = 2; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i], deltas[1]);
  }
  // The pool holds one shared segment per distinct shared process, not per session.
  size_t shared_procs = 0;
  for (const auto& proc : server.profile().login_processes) {
    if (proc.shared_text.count() > 0) {
      ++shared_procs;
    }
  }
  EXPECT_EQ(server.pager().shared_segments(), shared_procs);
  EXPECT_EQ(server.pager().shared_attaches(),
            static_cast<int64_t>(shared_procs) * (sessions - 1));
}

// --- Evicting a shared page makes every mapping session stall exactly once: the first
// toucher issues the one disk read, later touchers coalesce onto it, and everyone
// resumes at the same completion instant.
TEST_P(SharedPagerProperty, EvictedSharedPageStallsEveryMapperExactlyOnce) {
  Rng rng(GetParam());
  int mappers = 2 + static_cast<int>(rng.NextBelow(5));  // 2..6
  PagerFixture f(SmallMemory(64));
  SharedSegment seg = f.pager.AcquireShared("text:editor", true);
  ASSERT_TRUE(seg.created);
  f.pager.Prefault(*seg.space, 0, 1);
  f.pager.MarkSwappedOut(*seg.space, 0, 1);  // the page was evicted while all slept

  int64_t reads_before = f.disk.reads();
  std::vector<TimePoint> resumed(static_cast<size_t>(mappers), TimePoint::Infinite());
  std::vector<int> completions(static_cast<size_t>(mappers), 0);
  for (int m = 0; m < mappers; ++m) {
    f.pager.Access(*seg.space, 0, false, [&, m] {
      ++completions[static_cast<size_t>(m)];
      resumed[static_cast<size_t>(m)] = f.sim.Now();
    });
  }
  f.sim.Run();
  EXPECT_EQ(f.disk.reads() - reads_before, 1);  // one I/O, not one per session
  EXPECT_EQ(f.pager.coalesced_waits(), mappers - 1);
  for (int m = 0; m < mappers; ++m) {
    EXPECT_EQ(completions[static_cast<size_t>(m)], 1);  // exactly one stall each
    EXPECT_GT(resumed[static_cast<size_t>(m)], TimePoint::Zero());
    EXPECT_EQ(resumed[static_cast<size_t>(m)], resumed[0]);  // same completion
  }
}

// --- Shared segments: the live-segment gauge always matches a model map of the keys
// acquired, and every acquire after a key's first is one attach to its space.
TEST_P(SharedPagerProperty, SharedSegmentRefcountsMatchModel) {
  Rng rng(GetParam());
  PagerFixture f(SmallMemory(256));
  std::map<std::string, AddressSpace*> model;
  int64_t attaches = 0;
  for (int step = 0; step < 300; ++step) {
    std::string key = "seg:" + std::to_string(rng.NextInt(0, 8));
    auto it = model.find(key);
    SharedSegment seg = f.pager.AcquireShared(key, false);
    ASSERT_EQ(seg.created, it == model.end());
    if (seg.created) {
      f.pager.Prefault(*seg.space, 0, static_cast<size_t>(rng.NextInt(1, 8)));
      model[key] = seg.space;
    } else {
      EXPECT_EQ(seg.space, it->second);
      ++attaches;
    }
    ASSERT_EQ(f.pager.shared_segments(), model.size());
    ASSERT_EQ(f.pager.shared_attaches(), attaches);
  }
}

}  // namespace
}  // namespace tcs
