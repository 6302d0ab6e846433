// Snapshot layer: primitive encodings, framing, and the round-trip property.
//
// The load-bearing test is SnapshotOfRestoredRunIsByteIdentical: for every seed,
// snapshot a mid-flight consolidation run, restore it into a freshly constructed run,
// snapshot again, and require the two blobs byte-equal — compared section by section so
// a divergence names the guilty subsystem ("server.pager differs") instead of "bytes
// differ". Restore-then-save being the identity is what makes resume-vs-cold
// equivalence (tests/core_checkpoint_diff_test.cc) composable: any state a component
// forgets to serialize, or restores into a different shape, shows up here first.

#include "src/sim/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/scenario.h"
#include "src/obs/slo.h"
#include "src/session/os_profile.h"
#include "src/session/server.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

TEST(SnapshotPrimitives, RoundTripAllEncodings) {
  SnapshotWriter w;
  w.U8(0x7f);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xdeadbeef);
  w.U64(0);
  w.U64(127);
  w.U64(128);  // LEB128 continuation boundary
  w.U64(0xffffffffffffffffull);
  w.I64(0);
  w.I64(-1);
  w.I64(1);
  w.I64(INT64_MIN);
  w.I64(INT64_MAX);
  w.F64(0.0);
  w.F64(-0.0);
  w.F64(3.141592653589793);
  w.Str(std::string("hello"));
  w.Str("");
  w.Time(TimePoint::FromMicros(123456789));
  w.Dur(Duration::Micros(-42));
  std::vector<uint8_t> blob = w.Finish();

  SnapshotReader r(blob);
  EXPECT_EQ(r.U8(), 0x7f);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.U64(), 127u);
  EXPECT_EQ(r.U64(), 128u);
  EXPECT_EQ(r.U64(), 0xffffffffffffffffull);
  EXPECT_EQ(r.I64(), 0);
  EXPECT_EQ(r.I64(), -1);
  EXPECT_EQ(r.I64(), 1);
  EXPECT_EQ(r.I64(), INT64_MIN);
  EXPECT_EQ(r.I64(), INT64_MAX);
  EXPECT_EQ(r.F64(), 0.0);
  {
    double neg_zero = r.F64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));  // bit-pattern, not value, round-trips
  }
  EXPECT_EQ(r.F64(), 3.141592653589793);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Time(), TimePoint::FromMicros(123456789));
  EXPECT_EQ(r.Dur(), Duration::Micros(-42));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotPrimitives, SectionsNestAndCheckTags) {
  SnapshotWriter w;
  w.BeginSection(0x10);
  w.U64(1);
  w.BeginSection(0x11);
  w.U64(2);
  w.EndSection();
  w.EndSection();
  w.BeginSection(0x20);
  w.U64(3);
  w.EndSection();
  std::vector<uint8_t> blob = w.Finish();

  SnapshotReader r(blob);
  r.EnterSection(0x10);
  EXPECT_EQ(r.U64(), 1u);
  r.EnterSection(0x11);
  EXPECT_EQ(r.U64(), 2u);
  r.LeaveSection();
  r.LeaveSection();
  uint32_t tag = 0;
  EXPECT_TRUE(r.PeekSection(&tag));
  EXPECT_EQ(tag, 0x20u);
  EXPECT_THROW(r.EnterSection(0x21), SnapshotError);  // tag mismatch names the frame
  r.SkipSection();
  EXPECT_TRUE(r.AtEnd());

  std::map<uint32_t, std::pair<size_t, size_t>> spans = SnapshotSectionSpans(blob);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans.count(0x10));
  EXPECT_TRUE(spans.count(0x20));
}

TEST(SnapshotPrimitives, LeaveSectionRejectsUnderconsumedFrame) {
  SnapshotWriter w;
  w.BeginSection(0x10);
  w.U64(1);
  w.U64(2);
  w.EndSection();
  std::vector<uint8_t> blob = w.Finish();
  SnapshotReader r(blob);
  r.EnterSection(0x10);
  r.U64();
  EXPECT_THROW(r.LeaveSection(), SnapshotError);  // schema drift: one value unread
}

TEST(SnapshotPrimitives, CorruptionIsRejectedUpFront) {
  SnapshotWriter w;
  w.BeginSection(0x10);
  for (uint64_t i = 0; i < 64; ++i) {
    w.U64(i * i);
  }
  w.EndSection();
  std::vector<uint8_t> blob = w.Finish();

  std::vector<uint8_t> flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_THROW(SnapshotReader r(flipped), SnapshotError);

  std::vector<uint8_t> truncated(blob.begin(), blob.end() - 3);
  EXPECT_THROW(SnapshotReader r(truncated), SnapshotError);
}

TEST(SnapshotPrimitives, ResumeKeyRoundTrip) {
  SnapshotWriter w;
  ResumeKey::Make(7, 1, 2, 3, 4).SaveTo(w);
  ResumeKey{}.SaveTo(w);
  std::vector<uint8_t> blob = w.Finish();
  SnapshotReader r(blob);
  ResumeKey k = ResumeKey::LoadFrom(r);
  EXPECT_EQ(k.kind, 7u);
  EXPECT_EQ(k.n, 4u);
  EXPECT_EQ(k.arg(0), 1u);
  EXPECT_EQ(k.arg(3), 4u);
  EXPECT_TRUE(ResumeKey::LoadFrom(r).empty());
}

// ---------------------------------------------------------------------------
// The round-trip property over full consolidation runs.

ConsolidationOptions SmallRun(uint64_t seed) {
  ConsolidationOptions o;
  o.users = 3;
  o.duration = Duration::Seconds(2);
  o.seed = seed;
  o.ram = Bytes::MiB(48);  // small enough that the login storm pages
  o.burst_cpu = Duration::Millis(100);
  o.burst_period = Duration::Seconds(2);
  o.sinks = 1;
  return o;
}

// Byte-compares two snapshots; on divergence, names each differing subsystem section.
void ExpectSameSnapshot(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  if (a == b) {
    return;
  }
  auto sa = SnapshotSectionSpans(a);
  auto sb = SnapshotSectionSpans(b);
  for (const auto& [tag, span] : sa) {
    auto it = sb.find(tag);
    if (it == sb.end()) {
      ADD_FAILURE() << "section " << CheckpointSectionName(tag)
                    << " missing from the restored run's snapshot";
      continue;
    }
    const auto& other = it->second;
    bool same = (span.second - span.first) == (other.second - other.first) &&
                std::equal(a.begin() + static_cast<ptrdiff_t>(span.first),
                           a.begin() + static_cast<ptrdiff_t>(span.second),
                           b.begin() + static_cast<ptrdiff_t>(other.first));
    EXPECT_TRUE(same) << "section " << CheckpointSectionName(tag)
                      << " diverges after restore";
  }
  for (const auto& [tag, span] : sb) {
    if (!sa.count(tag)) {
      ADD_FAILURE() << "restored run's snapshot grew extra section "
                    << CheckpointSectionName(tag);
    }
  }
  ADD_FAILURE() << "snapshots differ (sizes " << a.size() << " vs " << b.size() << ")";
}

TEST(SnapshotRoundTrip, SnapshotOfRestoredRunIsByteIdentical) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ConsolidationOptions options = SmallRun(seed);
    ConsolidationRun original(OsProfile::Tse(), options);
    original.RunUntil(TimePoint::Zero() + Duration::Millis(1500));
    std::vector<uint8_t> first = original.Snapshot();

    ConsolidationRun restored(OsProfile::Tse(), options);
    restored.Restore(first);
    std::vector<uint8_t> second = restored.Snapshot();
    ExpectSameSnapshot(first, second);
  }
}

TEST(SnapshotRoundTrip, CapturePointsAcrossThePhases) {
  // Login storm (pre-typing), first keystrokes + page-ins, steady state: the pending
  // continuation mix differs at each point; all must survive save-restore-save.
  for (int64_t ms : {200, 1040, 2500}) {
    SCOPED_TRACE("capture at " + std::to_string(ms) + " ms");
    ConsolidationOptions options = SmallRun(7);
    ConsolidationRun original(OsProfile::Tse(), options);
    original.RunUntil(TimePoint::Zero() + Duration::Millis(ms));
    std::vector<uint8_t> first = original.Snapshot();

    ConsolidationRun restored(OsProfile::Tse(), options);
    restored.Restore(first);
    ExpectSameSnapshot(first, restored.Snapshot());
  }
}

TEST(SnapshotRoundTrip, SloWatchdogAndWanStateRoundTrip) {
  ConsolidationOptions options = SmallRun(3);
  options.wan = WanProfileByName("dsl");
  options.degrade = true;
  SloSpec spec;
  spec.max_worst_p99_ms = 5000.0;  // present but far away: exercises the watchdog path
  ObsConfig obs;
  obs.slo = &spec;

  ConsolidationRun original(OsProfile::Tse(), options, &obs);
  original.RunUntil(TimePoint::Zero() + Duration::Millis(2200));
  std::vector<uint8_t> first = original.Snapshot();

  ObsConfig obs2;
  obs2.slo = &spec;
  ConsolidationRun restored(OsProfile::Tse(), options, &obs2);
  restored.Restore(first);
  ExpectSameSnapshot(first, restored.Snapshot());
}

TEST(SnapshotRoundTrip, TopLevelSectionsAreNamed) {
  ConsolidationOptions options = SmallRun(1);
  ConsolidationRun run(OsProfile::Tse(), options);
  run.RunUntil(TimePoint::Zero() + Duration::Millis(1200));
  std::vector<uint8_t> blob = run.Snapshot();
  auto spans = SnapshotSectionSpans(blob);
  EXPECT_GE(spans.size(), 15u);  // kernel + 13 server sections + driver
  EXPECT_STREQ(CheckpointSectionName(1), "kernel");
  EXPECT_STREQ(CheckpointSectionName(kCheckpointDriverSection), "driver");
  int named = 0;
  for (const auto& [tag, span] : spans) {
    std::string name = CheckpointSectionName(tag);
    EXPECT_NE(name, "server.?") << "unnamed top-level section tag " << tag;
    named += name != "server.?";
  }
  EXPECT_GE(named, 15);
}

TEST(SnapshotRoundTrip, TopologyMismatchFailsLoudly) {
  ConsolidationOptions options = SmallRun(5);
  ConsolidationRun original(OsProfile::Tse(), options);
  original.RunUntil(TimePoint::Zero() + Duration::Millis(1500));
  std::vector<uint8_t> blob = original.Snapshot();

  {
    ConsolidationOptions wrong = options;
    wrong.users = 4;  // snapshot has 3 sessions
    ConsolidationRun target(OsProfile::Tse(), wrong);
    EXPECT_THROW(target.Restore(blob), SnapshotError);
  }
  {
    ConsolidationOptions wrong = options;
    wrong.burst_cpu = Duration::Zero();  // snapshot's users carry burst tasks
    ConsolidationRun target(OsProfile::Tse(), wrong);
    EXPECT_THROW(target.Restore(blob), SnapshotError);
  }
  {
    SloSpec spec;
    spec.max_worst_p99_ms = 5000.0;
    ObsConfig obs;
    obs.slo = &spec;  // snapshot has no watchdog section
    ConsolidationRun target(OsProfile::Tse(), options, &obs);
    EXPECT_THROW(target.Restore(blob), SnapshotError);
  }
  {
    // Paint records are not serialized: a run with a client device refuses both ways.
    Scenario scenario;
    scenario.client = ThinClientConfig::DesktopPc();
    ConsolidationRun target(OsProfile::Tse(), options, scenario, nullptr);
    EXPECT_THROW(target.Snapshot(), SnapshotError);
    EXPECT_THROW(target.Restore(blob), SnapshotError);
  }
}

}  // namespace
}  // namespace tcs
