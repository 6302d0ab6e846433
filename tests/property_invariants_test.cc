// Property-based invariant tests: randomized operation sequences against the invariants
// each component must hold regardless of input. Parameterized over seeds (TEST_P) so each
// property is checked against many independent random streams.

#include <gtest/gtest.h>

#include <tuple>
#include <memory>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/cpu/linux_scheduler.h"
#include "src/cpu/nt_scheduler.h"
#include "src/cpu/svr4_scheduler.h"
#include "src/mem/pager.h"
#include "src/net/link.h"
#include "src/proto/bitmap_cache.h"
#include "src/sim/random.h"
#include "src/session/server.h"
#include "src/sim/simulator.h"
#include "src/util/lz.h"

namespace tcs {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values<uint64_t>(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- Event queue: time ordering holds under random schedule/cancel interleaving.
TEST_P(SeededProperty, EventQueueAlwaysPopsInTimeOrder) {
  Rng rng(GetParam());
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    if (!ids.empty() && rng.NextBool(0.3)) {
      q.Cancel(ids[static_cast<size_t>(rng.NextBelow(ids.size()))]);
    } else {
      ids.push_back(q.Schedule(TimePoint::FromMicros(rng.NextInt(0, 10000)), [] {}));
    }
  }
  TimePoint last = TimePoint::Zero();
  while (!q.empty()) {
    TimePoint when;
    q.Pop(&when);
    EXPECT_GE(when, last);
    last = when;
  }
}

// --- Simulator: identical seeds produce bit-identical event interleavings.
TEST_P(SeededProperty, SimulatorRunsAreDeterministic) {
  auto run = [seed = GetParam()]() {
    Simulator sim;
    Rng rng(seed);
    std::vector<int64_t> trace;
    std::function<void(int)> spawn = [&](int depth) {
      trace.push_back(sim.Now().ToMicros());
      if (depth < 4) {
        int children = static_cast<int>(rng.NextBelow(3)) + 1;
        for (int c = 0; c < children; ++c) {
          sim.Schedule(Duration::Micros(rng.NextInt(1, 500)), [&, depth] {
            spawn(depth + 1);
          });
        }
      }
    };
    sim.Schedule(Duration::Zero(), [&] { spawn(0); });
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// --- CPU engine: thread CPU time is conserved — the sum of all threads' accounted CPU
// equals the busy time minus context-switch overhead, and never exceeds wall time.
TEST_P(SeededProperty, CpuTimeConservation) {
  Rng rng(GetParam());
  Simulator sim;
  CpuConfig cfg;
  cfg.context_switch_cost = Duration::Micros(10);
  Cpu cpu(sim, std::make_unique<NtScheduler>(), cfg);
  std::vector<Thread*> threads;
  for (int i = 0; i < 6; ++i) {
    threads.push_back(cpu.CreateThread("t", i % 2 == 0 ? ThreadClass::kGui : ThreadClass::kBatch,
                                       8 + i % 3));
  }
  Duration posted = Duration::Zero();
  for (int i = 0; i < 100; ++i) {
    Duration cost = Duration::Micros(rng.NextInt(100, 20000));
    Thread* t = threads[static_cast<size_t>(rng.NextBelow(threads.size()))];
    sim.Schedule(Duration::Micros(rng.NextInt(0, 500000)), [&cpu, t, cost, &rng] {
      cpu.PostWork(*t, cost, nullptr,
                   rng.NextBool(0.5) ? WakeReason::kInputEvent : WakeReason::kOther);
    });
    posted += cost;
  }
  sim.Run();
  Duration executed = Duration::Zero();
  for (Thread* t : threads) {
    executed += t->cpu_time();
  }
  EXPECT_EQ(executed, posted);             // all posted work ran to completion
  EXPECT_GE(cpu.busy_time(), executed);    // busy time includes switch overhead
  EXPECT_LE(cpu.busy_time() - executed, Duration::Millis(50));  // bounded overhead
  EXPECT_LE(executed, sim.Now() - TimePoint::Zero());           // can't exceed wall time
}

// --- Schedulers: no runnable thread is lost (every PostWork completes) under all three
// scheduler policies.
TEST_P(SeededProperty, NoWorkLostUnderAnySchedulerPolicy) {
  for (int which = 0; which < 3; ++which) {
    Rng rng(GetParam() * 3 + static_cast<uint64_t>(which));
    Simulator sim;
    std::unique_ptr<Scheduler> sched;
    if (which == 0) {
      sched = std::make_unique<NtScheduler>();
    } else if (which == 1) {
      sched = std::make_unique<LinuxScheduler>();
    } else {
      sched = std::make_unique<Svr4InteractiveScheduler>();
    }
    Cpu cpu(sim, std::move(sched));
    std::vector<Thread*> threads;
    for (int i = 0; i < 5; ++i) {
      threads.push_back(cpu.CreateThread(
          "t", static_cast<ThreadClass>(rng.NextBelow(3)), static_cast<int>(rng.NextBelow(16))));
    }
    int completions = 0;
    int expected = 0;
    for (int i = 0; i < 60; ++i) {
      Thread* t = threads[static_cast<size_t>(rng.NextBelow(threads.size()))];
      Duration cost = Duration::Micros(rng.NextInt(10, 30000));
      ++expected;
      sim.Schedule(Duration::Micros(rng.NextInt(0, 200000)),
                   [&cpu, t, cost, &completions] {
                     cpu.PostWork(*t, cost, [&completions] { ++completions; });
                   });
    }
    sim.Run();
    EXPECT_EQ(completions, expected) << "scheduler variant " << which;
  }
}

// --- Pager: frame accounting stays consistent under random access patterns.
TEST_P(SeededProperty, PagerFrameAccountingInvariants) {
  Rng rng(GetParam());
  Simulator sim;
  Disk disk(sim, Rng(GetParam() ^ 0xD15C));
  PagerConfig cfg;
  cfg.total_frames = 64;
  Pager pager(sim, disk, cfg);
  std::vector<AddressSpace*> spaces;
  for (int i = 0; i < 3; ++i) {
    spaces.push_back(pager.CreateAddressSpace(rng.NextBool(0.5)));
  }
  for (int i = 0; i < 400; ++i) {
    AddressSpace* as = spaces[static_cast<size_t>(rng.NextBelow(spaces.size()))];
    pager.Access(*as, rng.NextBelow(200), rng.NextBool(0.4), nullptr);
    ASSERT_LE(pager.frames_used(), pager.total_frames());
    size_t resident_total = 0;
    for (AddressSpace* s : spaces) {
      resident_total += s->resident_pages();
    }
    ASSERT_EQ(resident_total, pager.frames_used());
  }
  sim.Run();
  EXPECT_EQ(pager.hits() + pager.faults(), 400);
}

// --- Bitmap cache: capacity is never exceeded, and hits+misses == lookups.
TEST_P(SeededProperty, BitmapCacheInvariants) {
  Rng rng(GetParam());
  for (CachePolicy policy : {CachePolicy::kLru, CachePolicy::kLoopAware}) {
    BitmapCacheConfig cfg;
    cfg.capacity = Bytes::Of(10000);
    cfg.policy = policy;
    BitmapCache cache(cfg);
    for (int i = 0; i < 2000; ++i) {
      uint64_t hash = rng.NextBelow(60);
      if (!cache.Lookup(hash)) {
        cache.Insert(hash, Bytes::Of(static_cast<int64_t>(rng.NextBelow(3000)) + 1));
      }
      ASSERT_LE(cache.used(), cache.capacity());
    }
    EXPECT_EQ(cache.hits() + cache.misses(), 2000);
    // The cache still answers correctly after churn: inserting then looking up hits.
    cache.Insert(999, Bytes::Of(100));
    EXPECT_TRUE(cache.Lookup(999));
  }
}

// --- LZ codec: round-trip identity over structured random inputs (segments of varying
// redundancy concatenated, like real protocol streams).
TEST_P(SeededProperty, LzRoundTripOnMixedStreams) {
  Rng rng(GetParam());
  std::vector<uint8_t> input;
  int segments = static_cast<int>(rng.NextBelow(6)) + 1;
  for (int s = 0; s < segments; ++s) {
    size_t len = static_cast<size_t>(rng.NextBelow(8000));
    std::vector<uint8_t> seg(len);
    rng.FillBytes(seg.data(), len, rng.NextDouble());
    input.insert(input.end(), seg.begin(), seg.end());
  }
  auto restored = LzCodec::Decompress(LzCodec::Compress(input));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
}

// --- LZ codec: decompressing arbitrary bytes must never crash or mis-size; it either
// fails cleanly or produces output consistent with the stream's own claims.
TEST_P(SeededProperty, LzDecompressFuzzNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = static_cast<size_t>(rng.NextBelow(512));
    std::vector<uint8_t> garbage(len);
    rng.FillBytes(garbage.data(), len, rng.NextDouble());
    auto out = LzCodec::Decompress(garbage);
    if (out.has_value()) {
      // A match can expand at most kMaxMatch per 3 stream bytes; bound the output.
      EXPECT_LE(out->size(), len * LzCodec::kMaxMatch);
    }
  }
}

// --- LZ codec: truncating a valid compressed stream at any point fails cleanly or
// yields a prefix-consistent result, never UB.
TEST_P(SeededProperty, LzTruncationFuzz) {
  Rng rng(GetParam());
  std::vector<uint8_t> input(2000);
  rng.FillBytes(input.data(), input.size(), 0.8);
  auto compressed = LzCodec::Compress(input);
  for (size_t cut = 0; cut < compressed.size(); cut += 7) {
    std::vector<uint8_t> truncated(compressed.begin(),
                                   compressed.begin() + static_cast<ptrdiff_t>(cut));
    auto out = LzCodec::Decompress(truncated);
    if (out.has_value()) {
      ASSERT_LE(out->size(), input.size());
      EXPECT_TRUE(std::equal(out->begin(), out->end(), input.begin()));
    }
  }
}

// --- Link: deliveries are FIFO — completion times are monotone in send order.
TEST_P(SeededProperty, LinkDeliveriesAreFifo) {
  Rng rng(GetParam());
  Simulator sim;
  LinkConfig cfg;
  cfg.csma_cd = rng.NextBool(0.5);
  Link link(sim, cfg);
  std::vector<int64_t> deliveries;
  int sent = 0;
  for (int i = 0; i < 200; ++i) {
    sim.Schedule(Duration::Micros(rng.NextInt(0, 100000)), [&] {
      ++sent;
      link.Send(Bytes::Of(rng.NextInt(60, 1500)),
                [&] { deliveries.push_back(sim.Now().ToMicros()); });
    });
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 200u);
  for (size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_GE(deliveries[i], deliveries[i - 1]);
  }
}

// --- End-to-end determinism: a full server scenario replayed with the same seed yields
// identical traffic and stall measurements.
TEST_P(SeededProperty, FullServerScenarioIsDeterministic) {
  auto run = [seed = GetParam()]() {
    Simulator sim;
    ServerConfig cfg;
    cfg.seed = seed;
    Server server(sim, OsProfile::Tse(), cfg);
    server.StartDaemons();
    Session& s = server.Login();
    server.StartSinks(3);
    int updates = 0;
    s.set_on_display_update([&](TimePoint) { ++updates; });
    PeriodicTask typing(sim, Duration::Millis(50), [&] { server.Keystroke(s); });
    typing.Start();
    sim.RunUntil(TimePoint::Zero() + Duration::Seconds(5));
    typing.Stop();
    return std::tuple(server.tap().total_counted_bytes().count(),
                      server.tap().total_messages(), updates,
                      server.cpu().busy_time().ToMicros());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tcs
