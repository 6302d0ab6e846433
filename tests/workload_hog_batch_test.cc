// Differential test for the memory hog's batched resident hits.
//
// MemoryHog applies the resident hits due before Simulator::Horizon() inside one
// completion event. The oracle below is the per-page hog it replaced: one Pager::Access
// and one completion event per touch. Each seed builds two identical worlds, one per
// hog, and drives both through the same random script: pager size and policy, hog
// region and touch time, an interactive victim space hit at random instants (half of
// them on exact multiples of the touch time, a few more on the hog's live touch grid),
// Stop()/Start() calls from inside victim completions, and six RunUntil deadlines (half
// of them on touch instants). Everything observable must match at every deadline: pager
// counters, both spaces' page tables, the disk queue, the pending-event count and the
// victim's completion log.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiments.h"
#include "src/mem/disk.h"
#include "src/mem/pager.h"
#include "src/session/os_profile.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/workload/memory_hog.h"

namespace tcs {
namespace {

// The per-page hog: every touch is a Pager::Access whose completion schedules the next
// touch one touch_cpu later. Start() resumes a chain whose next touch is still pending.
class PerPageHog {
 public:
  PerPageHog(Simulator& sim, Pager& pager, MemoryHogConfig config)
      : sim_(sim), pager_(pager), config_(config) {
    as_ = pager_.CreateAddressSpace("hog", /*interactive=*/false);
  }

  void Start() {
    if (running_) {
      return;
    }
    running_ = true;
    if (!chained_) {
      chained_ = true;
      TouchNext();
    }
  }
  void Stop() { running_ = false; }

  AddressSpace* address_space() const { return as_; }
  int64_t pages_touched() const { return pages_touched_; }

  // Fire time of the scheduled next touch, if one is pending (none while a touch waits
  // on the disk).
  std::optional<TimePoint> next_touch() const {
    if (!sim_.IsPending(touch_ev_)) {
      return std::nullopt;
    }
    return next_touch_at_;
  }

 private:
  void TouchNext() {
    if (!running_) {
      chained_ = false;
      return;
    }
    uint64_t vpn = next_vpn_;
    next_vpn_ = (next_vpn_ + 1) % config_.region_pages;
    pager_.Access(*as_, vpn, config_.writes, [this] {
      ++pages_touched_;
      next_touch_at_ = sim_.Now() + config_.touch_cpu;
      touch_ev_ = sim_.Schedule(config_.touch_cpu, [this] { TouchNext(); });
    });
  }

  Simulator& sim_;
  Pager& pager_;
  MemoryHogConfig config_;
  AddressSpace* as_;
  uint64_t next_vpn_ = 0;
  int64_t pages_touched_ = 0;
  bool running_ = false;
  bool chained_ = false;
  EventId touch_ev_;
  TimePoint next_touch_at_;
};

enum class HogAction { kNone, kStop, kStart };

// One victim access: Access (count == 1 and !range) or AccessRange of the victim space.
struct VictimCall {
  // Scheduled at `at` before the run, or, for grid_step >= 0, just before running to
  // deadline grid_step, `grid_k` touch times after the hog's pending touch.
  TimePoint at;
  int grid_step = -1;
  int64_t grid_k = 0;
  uint64_t first = 0;
  size_t count = 1;
  bool range = false;
  bool write = false;
  HogAction action = HogAction::kNone;
  // Non-zero: the completion schedules a repeat of this access at the first multiple of
  // touch_cpu at least this far ahead.
  Duration repeat_after = Duration::Zero();
};

struct Script {
  PagerConfig pager;
  MemoryHogConfig hog;
  uint64_t disk_seed = 0;
  size_t victim_pages = 0;
  std::vector<VictimCall> calls;
  // Six deadline candidates, ascending; the odd ones snap to a hog touch instant.
  std::vector<TimePoint> deadlines;
};

Script DrawScript(uint64_t seed) {
  Rng rng(seed);
  Script s;
  s.pager.total_frames = static_cast<size_t>(rng.NextInt(20, 100));
  s.pager.cluster_pages = static_cast<size_t>(rng.NextInt(1, 3));
  s.pager.policy =
      rng.NextBool(0.5) ? EvictionPolicy::kGlobalLru : EvictionPolicy::kInteractiveProtect;
  int64_t frames = static_cast<int64_t>(s.pager.total_frames);
  s.victim_pages = static_cast<size_t>(rng.NextInt(4, std::min<int64_t>(30, frames - 2)));
  // Half the regions fit in memory but not beside the whole victim space: the hog's hits
  // then share the pager with victim faults that evict its pages.
  int64_t region = rng.NextBool(0.5)
                       ? frames - rng.NextInt(1, static_cast<int64_t>(s.victim_pages))
                       : rng.NextInt(5, 125);
  s.hog.region_pages = static_cast<size_t>(std::clamp<int64_t>(region, 5, 125));
  const int64_t kTouchUs[] = {1, 2, 7, 50, 100};
  int64_t c = kTouchUs[rng.NextBelow(5)];
  s.hog.touch_cpu = Duration::Micros(c);
  s.hog.writes = rng.NextBool(0.5);
  s.disk_seed = rng.NextU64();

  int64_t span = static_cast<int64_t>(s.hog.region_pages) * c * rng.NextInt(1, 30) +
                 rng.NextInt(0, 20000);
  int n = static_cast<int>(rng.NextInt(20, 60));
  for (int i = 0; i < n; ++i) {
    VictimCall v;
    int64_t at = rng.NextInt(0, span);
    if (rng.NextBool(0.5)) {
      at -= at % c;  // on a touch-time multiple
    }
    v.at = TimePoint::FromMicros(at);
    v.first = rng.NextBelow(s.victim_pages);
    v.range = rng.NextBool(0.5);
    v.count = v.range ? static_cast<size_t>(rng.NextInt(
                            1, std::min<int64_t>(4, static_cast<int64_t>(
                                                        s.victim_pages - v.first))))
                      : 1;
    v.write = rng.NextBool(0.3);
    double a = rng.NextDouble();
    v.action = a < 0.12 ? HogAction::kStop : (a < 0.24 ? HogAction::kStart : HogAction::kNone);
    if (rng.NextBool(0.3)) {
      v.repeat_after = Duration::Micros(c * rng.NextInt(1, 50));
    }
    s.calls.push_back(v);
  }
  // Up to three more calls per deadline land exactly on the hog's touch grid, where a
  // victim event and a hog touch share an instant.
  for (int d = 0; d < 6; ++d) {
    int64_t grid_calls = rng.NextInt(0, 3);
    for (int64_t j = 0; j < grid_calls; ++j) {
      VictimCall v = s.calls[rng.NextBelow(static_cast<uint64_t>(n))];
      v.grid_step = d;
      v.grid_k = rng.NextInt(1, 20);
      s.calls.push_back(v);
    }
  }
  for (int i = 0; i < 6; ++i) {
    s.deadlines.push_back(TimePoint::FromMicros(rng.NextInt(1, span)));
  }
  std::sort(s.deadlines.begin(), s.deadlines.end());
  return s;
}

// Everything a run's caller can read back at a deadline.
struct Observed {
  int64_t now_us = 0;
  size_t pending_events = 0;
  int64_t disk_busy_until_us = 0;
  int64_t faults = 0, hits = 0, evictions = 0, dirty_writebacks = 0;
  int64_t protected_skips = 0, coalesced_waits = 0;
  size_t frames_used = 0;
  int64_t pages_touched = 0;
  // Each space's packed page entries (frame slots included) and resident count.
  std::vector<uint32_t> victim_pages, hog_pages;
  size_t victim_resident = 0, hog_resident = 0;
  std::vector<std::pair<int, int64_t>> victim_log;  // (call, completion time in us)

  bool operator==(const Observed&) const = default;

  std::string Summary() const {
    std::ostringstream os;
    os << "now=" << now_us << "us pending=" << pending_events
       << " disk_busy_until=" << disk_busy_until_us << "us faults=" << faults
       << " hits=" << hits << " evictions=" << evictions
       << " writebacks=" << dirty_writebacks << " skips=" << protected_skips
       << " coalesced=" << coalesced_waits << " frames_used=" << frames_used
       << " touched=" << pages_touched << " victim_log=" << victim_log.size()
       << (victim_log.empty() ? "" : " last@" + std::to_string(victim_log.back().second));
    return os.str();
  }
};

template <typename Hog>
class World {
 public:
  explicit World(const Script& s)
      : script_(s), disk_(sim_, Rng(s.disk_seed)), pager_(sim_, disk_, s.pager) {
    victim_ = pager_.CreateAddressSpace("victim", /*interactive=*/true);
    pager_.Prefault(*victim_, 0, s.victim_pages);
    hog_.emplace(sim_, pager_, s.hog);
    hog_->Start();
    for (size_t i = 0; i < s.calls.size(); ++i) {
      if (s.calls[i].grid_step < 0) {
        At(s.calls[i].at, static_cast<int>(i));
      }
    }
  }

  // Schedules deadline `step`'s grid calls around the hog's pending touch at `next`.
  void ScheduleGridCalls(int step, TimePoint next) {
    for (size_t i = 0; i < script_.calls.size(); ++i) {
      if (script_.calls[i].grid_step == step) {
        At(next + script_.hog.touch_cpu * script_.calls[i].grid_k, static_cast<int>(i));
      }
    }
  }

  void RunUntil(TimePoint deadline) { sim_.RunUntil(deadline); }
  const Hog& hog() const { return *hog_; }

  Observed Observe() const {
    Observed o;
    o.now_us = sim_.Now().ToMicros();
    o.pending_events = sim_.pending_events();
    o.disk_busy_until_us = disk_.busy_until().ToMicros();
    o.faults = pager_.faults();
    o.hits = pager_.hits();
    o.evictions = pager_.evictions();
    o.dirty_writebacks = pager_.dirty_writebacks();
    o.protected_skips = pager_.protected_skips();
    o.coalesced_waits = pager_.coalesced_waits();
    o.frames_used = pager_.frames_used();
    o.pages_touched = hog_->pages_touched();
    o.victim_pages = victim_->page_entries();
    o.victim_resident = victim_->resident_pages();
    o.hog_pages = hog_->address_space()->page_entries();
    o.hog_resident = hog_->address_space()->resident_pages();
    o.victim_log = log_;
    return o;
  }

 private:
  void At(TimePoint at, int i) {
    sim_.At(at, [this, i] { Call(i, /*repeat=*/false); });
  }

  // Victim call `i` (or its repeat, logged as -1 - i).
  void Call(int i, bool repeat) {
    const VictimCall& v = script_.calls[static_cast<size_t>(i)];
    auto done = [this, i, repeat] { Done(i, repeat); };
    if (v.range) {
      pager_.AccessRange(*victim_, v.first, v.count, v.write, done);
    } else {
      pager_.Access(*victim_, v.first, v.write, done);
    }
  }

  void Done(int i, bool repeat) {
    const VictimCall& v = script_.calls[static_cast<size_t>(i)];
    log_.emplace_back(repeat ? -1 - i : i, sim_.Now().ToMicros());
    if (repeat) {
      return;
    }
    if (v.action == HogAction::kStop) {
      hog_->Stop();
    } else if (v.action == HogAction::kStart) {
      hog_->Start();
    }
    if (!v.repeat_after.IsZero()) {
      int64_t c = script_.hog.touch_cpu.ToMicros();
      int64_t at = (sim_.Now() + v.repeat_after).ToMicros();
      at += (c - at % c) % c;
      sim_.At(TimePoint::FromMicros(at), [this, i] { Call(i, /*repeat=*/true); });
    }
  }

  const Script& script_;
  Simulator sim_;
  Disk disk_;
  Pager pager_;
  AddressSpace* victim_ = nullptr;
  std::optional<Hog> hog_;
  std::vector<std::pair<int, int64_t>> log_;
};

// Runs one seed; returns a description of the first mismatch, or "" if none.
std::string RunSeed(uint64_t seed) {
  Script s = DrawScript(seed);
  World<MemoryHog> batched(s);
  World<PerPageHog> oracle(s);
  TimePoint last = TimePoint::Zero();
  for (size_t d = 0; d < s.deadlines.size(); ++d) {
    TimePoint deadline = std::max(last, s.deadlines[d]);
    std::optional<TimePoint> next = oracle.hog().next_touch();
    if (next) {
      batched.ScheduleGridCalls(static_cast<int>(d), *next);
      oracle.ScheduleGridCalls(static_cast<int>(d), *next);
    }
    if (d % 2 == 1 && next && *next >= last && *next <= deadline) {
      // The latest instant on the hog's current touch grid at or before the candidate.
      Duration c = s.hog.touch_cpu;
      deadline = *next + c * ((deadline - *next).ToMicros() / c.ToMicros());
    }
    last = deadline;
    batched.RunUntil(deadline);
    oracle.RunUntil(deadline);
    Observed got = batched.Observe();
    Observed want = oracle.Observe();
    if (got != want) {
      std::string what;
      if (got.victim_pages != want.victim_pages ||
          got.victim_resident != want.victim_resident) {
        what += " victim-space";
      }
      if (got.hog_pages != want.hog_pages || got.hog_resident != want.hog_resident) {
        what += " hog-space";
      }
      if (got.victim_log != want.victim_log) {
        what += " victim-log";
      }
      return "seed " + std::to_string(seed) + " deadline " + std::to_string(d) + " @" +
             std::to_string(deadline.ToMicros()) + "us differs:" + what +
             "\n  batched:  " + got.Summary() + "\n  per-page: " + want.Summary();
    }
  }
  return "";
}

TEST(HogBatchTest, MatchesPerPageOracleAtEveryDeadline) {
  int mismatches = 0;
  std::string first;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    std::string diff = RunSeed(seed);
    if (!diff.empty()) {
      if (mismatches++ == 0) {
        first = diff;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << mismatches << " of 400 seeds mismatch; first:\n" << first;
}

// A §5.2 trial runs the hog for 30+ s of virtual time; resident hits no longer cost an
// event each (the per-page hog ran about 1.2 M events per trial), and the keystroke's
// response is what the per-page hog produced.
TEST(HogBatchTest, PagingTrialEventBudget) {
  PagingLatencyResult linux_trial = RunPagingLatency(OsProfile::LinuxX(), true, 1, 1);
  PagingLatencyResult tse_trial = RunPagingLatency(OsProfile::Tse(), true, 1, 1);
  EXPECT_LT(linux_trial.run.events_executed, 50000u);
  EXPECT_LT(tse_trial.run.events_executed, 50000u);
  EXPECT_NEAR(linux_trial.avg_ms, 2846.530, 5e-4);
  EXPECT_NEAR(tse_trial.avg_ms, 5598.833, 5e-4);
}

}  // namespace
}  // namespace tcs
