// Configuration-matrix tests: structural invariants that must hold for EVERY protocol
// and EVERY OS profile, plus parameterized sweeps over the knobs experiments turn.

#include <gtest/gtest.h>

#include "src/core/experiments.h"

namespace tcs {
namespace {

constexpr ProtocolKind kAllProtocols[] = {ProtocolKind::kRdp, ProtocolKind::kX,
                                          ProtocolKind::kLbx, ProtocolKind::kSlim,
                                          ProtocolKind::kVnc};

class ProtocolMatrix : public ::testing::TestWithParam<ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolMatrix, ::testing::ValuesIn(kAllProtocols));

TEST_P(ProtocolMatrix, AppWorkloadProducesTrafficOnBothChannels) {
  ProtocolTrafficResult r = RunAppWorkloadTraffic(GetParam(), 1, 60);
  EXPECT_GT(r.display.bytes, 0) << r.protocol;
  EXPECT_GT(r.display.messages, 0) << r.protocol;
  EXPECT_GT(r.input.bytes, 0) << r.protocol;
  EXPECT_GT(r.input.messages, 0) << r.protocol;
  // Counted bytes include at least one TCP/IP header per message.
  EXPECT_GE(r.total_bytes, r.total_messages * 40) << r.protocol;
  EXPECT_EQ(r.total_bytes, r.input.bytes + r.display.bytes) << r.protocol;
  // VIP always saves exactly 20 bytes per packet.
  EXPECT_EQ(r.total_bytes - r.vip_bytes, 20 * r.packets) << r.protocol;
  EXPECT_GE(r.packets, r.total_messages) << r.protocol;
}

TEST_P(ProtocolMatrix, TrafficIsDeterministicAcrossRuns) {
  ProtocolTrafficResult a = RunAppWorkloadTraffic(GetParam(), 9, 40);
  ProtocolTrafficResult b = RunAppWorkloadTraffic(GetParam(), 9, 40);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
}

TEST_P(ProtocolMatrix, DifferentSeedsPerturbPayloadsOnly) {
  // Counts may differ slightly across seeds (scripts are seeded), but traffic exists and
  // stays within the same order of magnitude.
  ProtocolTrafficResult a = RunAppWorkloadTraffic(GetParam(), 1, 60);
  ProtocolTrafficResult b = RunAppWorkloadTraffic(GetParam(), 2, 60);
  EXPECT_GT(b.total_bytes, a.total_bytes / 3);
  EXPECT_LT(b.total_bytes, a.total_bytes * 3);
}

TEST_P(ProtocolMatrix, SessionSetupBytesPositive) {
  EXPECT_GT(SessionSetupBytes(GetParam()), Bytes::Zero());
}

TEST_P(ProtocolMatrix, AnimationOnlyRdpIsCheap) {
  GifAnimationOptions opt;
  opt.duration = Duration::Seconds(10);
  AnimationLoadResult r = RunGifAnimation(GetParam(), opt);
  if (GetParam() == ProtocolKind::kRdp) {
    EXPECT_LT(r.sustained_mbps, 0.1);
  } else {
    // Everyone without a bitmap cache pays per frame.
    EXPECT_GT(r.sustained_mbps, 0.5) << r.protocol;
  }
}

struct OsCase {
  const char* name;
  OsProfile (*make)();
};

// gtest would otherwise print the case as raw bytes, pointers included, so the
// listed test names would change with every process's load address. With the
// default numeric suffix, ctest's discovery then names each case by profile
// (".../tse").
void PrintTo(const OsCase& c, std::ostream* os) { *os << c.name; }

class OsMatrix : public ::testing::TestWithParam<OsCase> {};
INSTANTIATE_TEST_SUITE_P(
    AllProfiles, OsMatrix,
    ::testing::Values(OsCase{"tse", &OsProfile::Tse}, OsCase{"linux", &OsProfile::LinuxX},
                      OsCase{"ntws", &OsProfile::NtWorkstation},
                      OsCase{"svr4", &OsProfile::LinuxSvr4}));

TEST_P(OsMatrix, ProfileIsWellFormed) {
  OsProfile p = GetParam().make();
  EXPECT_FALSE(p.name.empty());
  EXPECT_FALSE(p.idle_daemons.empty());
  EXPECT_FALSE(p.login_processes.empty());
  EXPECT_FALSE(p.light_login_processes.empty());
  EXPECT_FALSE(p.keystroke_pipeline.empty());
  EXPECT_GT(p.editor_working_set_pages, 0u);
  EXPECT_GT(p.idle_system_memory, Bytes::Zero());
  EXPECT_GE(p.ws_touch_max, p.ws_touch_min);
  EXPECT_GT(p.ws_touch_min, 0.0);
  // The first hop must be the GUI thread (it receives the input-event boost).
  EXPECT_EQ(p.keystroke_pipeline.front().cls, ThreadClass::kGui);
  // Every profile has a clock tick daemon.
  bool has_clock = false;
  for (const DaemonSpec& d : p.idle_daemons) {
    has_clock = has_clock || d.name == "clock";
    EXPECT_GT(d.period, Duration::Zero());
    EXPECT_GT(d.episode_cpu, Duration::Zero());
    EXPECT_GT(d.duty, 0.0);
    EXPECT_LE(d.duty, 1.0);
  }
  EXPECT_TRUE(has_clock);
  EXPECT_NE(p.MakeScheduler(), nullptr);
}

TEST_P(OsMatrix, UnloadedTypingIsImperceptible) {
  TypingUnderLoadResult r =
      RunTypingUnderLoad(GetParam().make(), 0, Duration::Seconds(10));
  EXPECT_LT(r.avg_stall_ms, 5.0) << r.os_name;
  EXPECT_GT(r.updates, 150) << r.os_name;
}

TEST_P(OsMatrix, IdleProfileUtilizationBounded) {
  IdleProfileResult r = RunIdleProfile(GetParam().make(), Duration::Seconds(30));
  for (double u : r.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  // Idle means idle: single-digit percent busy at most.
  EXPECT_LT(r.total_busy.ToSecondsF() / 30.0, 0.12) << r.os_name;
}

// Cache-knee sweep: an N-frame loop of 24 KB frames fits the 1.5 MB cache iff
// N * 24000 <= 1.5 MiB, and the measured load flips exactly there.
class CacheKneeSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(FrameCounts, CacheKneeSweep,
                         ::testing::Values(30, 50, 60, 65, 66, 75, 90));

TEST_P(CacheKneeSweep, LoadMatchesCapacityArithmetic) {
  int frames = GetParam();
  GifAnimationOptions opt;
  opt.frames = frames;
  opt.frame_period = Duration::Millis(200);
  opt.width = 200;
  opt.height = 150;
  opt.compression_ratio = 0.8;  // 24 000-byte frames
  opt.duration = Duration::Seconds(40);
  AnimationLoadResult r = RunGifAnimation(ProtocolKind::kRdp, opt);
  bool fits = static_cast<int64_t>(frames) * 24000 <= 3 * 512 * 1024;
  if (fits) {
    EXPECT_LT(r.sustained_mbps, 0.05) << frames << " frames";
  } else {
    EXPECT_GT(r.sustained_mbps, 0.8) << frames << " frames";
  }
}

// Quantum-stretch sweep of the §4.2.1 maximize arithmetic: completion is exactly
// op + daemon when the op outlives the grace period, and exactly op when boosted
// throughput covers it.
class StretchSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Stretch, StretchSweep, ::testing::Values(1, 2, 3));

TEST_P(StretchSweep, MaximizeArithmetic) {
  int stretch = GetParam();
  Duration done = RunMaximizeScenario(stretch, 1.0);
  // Grace = 2 quanta x 30 ms x stretch < 500 ms for all stretch <= 3: always stranded.
  EXPECT_EQ(done, Duration::Millis(900));
  // At 6x speed the op is ~83 ms < the 60 ms grace? No: 60 ms at stretch 1. Check per
  // stretch: grace(ms) = 60 * stretch; op = 500/6 ~ 83.3 ms.
  Duration fast = RunMaximizeScenario(stretch, 6.0);
  if (60 * stretch >= 84) {
    EXPECT_LT(fast, Duration::Millis(90));
  } else {
    EXPECT_GT(fast, Duration::Millis(90));
  }
}

}  // namespace
}  // namespace tcs
