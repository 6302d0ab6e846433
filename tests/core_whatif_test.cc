// Counterfactual what-if analysis: PredictAdjustedTotalUs arithmetic on a hand-built
// record (exact expected values per component, including the RTT clamp), RunWhatIf
// end-to-end sanity on an LTE cell, byte-identical determinism of the whatif block
// across reruns, and the WanOptions virtual-hardware gates.

#include <string>

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/core/report.h"
#include "src/obs/attribution.h"
#include "src/session/os_profile.h"

namespace tcs {
namespace {

constexpr int Stage(AttrStage s) { return static_cast<int>(s); }
constexpr int Net(NetSubStage s) { return static_cast<int>(s); }

// A record with round numbers so the expected totals are exact under either
// per-stage or summed rescaling: stages sum to 18300, net sub-stages to the
// display-net stage's 10000.
InteractionRecord MakeRecord() {
  InteractionRecord rec;
  rec.sent_us = 0;
  rec.painted_us = 18'300;
  rec.stage_us[Stage(AttrStage::kInputNet)] = 1'000;
  rec.stage_us[Stage(AttrStage::kRetransmit)] = 500;
  rec.stage_us[Stage(AttrStage::kSchedWait)] = 2'000;
  rec.stage_us[Stage(AttrStage::kCpuService)] = 3'000;
  rec.stage_us[Stage(AttrStage::kMemStall)] = 400;
  rec.stage_us[Stage(AttrStage::kProtoEncode)] = 600;
  rec.stage_us[Stage(AttrStage::kDisplayNet)] = 10'000;
  rec.stage_us[Stage(AttrStage::kClientDecode)] = 800;
  rec.net_us[Net(NetSubStage::kQueueing)] = 4'000;
  rec.net_us[Net(NetSubStage::kRetransmitWait)] = 2'000;
  rec.net_us[Net(NetSubStage::kSerialization)] = 1'500;
  rec.net_us[Net(NetSubStage::kPropagation)] = 2'000;
  rec.net_us[Net(NetSubStage::kJitter)] = 500;
  return rec;
}

TEST(WhatIfTest, PredictAdjustedTotalScalesOnlyTheAffectedSegments) {
  InteractionRecord rec = MakeRecord();
  ASSERT_EQ(rec.StageSum(), rec.total_us());
  ASSERT_EQ(rec.NetSum(), rec.stage_us[Stage(AttrStage::kDisplayNet)]);

  WhatIfAdjustment adj;
  adj.speedup = 2.0;

  // Link x2 halves queueing + retransmit wait + serialization (7500 -> 3750);
  // propagation and jitter are delay, not rate, and stay put.
  adj.component = WhatIfAdjustment::Component::kLink;
  EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), 18'300 - 7'500 + 3'750);

  // CPU x2 halves cpu-service + proto-encode (3600 -> 1800); run-queue wait is a
  // second-order effect and is deliberately left unscaled.
  adj.component = WhatIfAdjustment::Component::kCpu;
  EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), 18'300 - 3'600 + 1'800);

  // Disk x2 halves the mem-stall interval only.
  adj.component = WhatIfAdjustment::Component::kDisk;
  EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), 18'300 - 400 + 200);

  // Speedup 1.0 is the identity for every rate component.
  adj.speedup = 1.0;
  for (auto c : {WhatIfAdjustment::Component::kLink, WhatIfAdjustment::Component::kCpu,
                 WhatIfAdjustment::Component::kDisk}) {
    adj.component = c;
    EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), rec.total_us());
  }
}

TEST(WhatIfTest, RttReductionSplitsAcrossLegsAndClampsAtZero) {
  InteractionRecord rec = MakeRecord();
  WhatIfAdjustment adj;
  adj.component = WhatIfAdjustment::Component::kRtt;

  // -3 ms RTT: 1500 comes off display-leg propagation (2000 -> 500), but the input
  // leg only has 1000 to give, so that half clamps.
  adj.rtt_delta_us = 3'000;
  EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), 18'300 - 1'500 - 1'000);

  // An absurd reduction can at most zero both legs (propagation 2000 + input 1000);
  // the other stages are untouched.
  adj.rtt_delta_us = 100'000;
  EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), 18'300 - 2'000 - 1'000);

  adj.rtt_delta_us = 0;
  EXPECT_EQ(PredictAdjustedTotalUs(rec, adj), rec.total_us());
}

TEST(WhatIfTest, ComponentNamesAreStable) {
  EXPECT_STREQ(WhatIfComponentName(WhatIfAdjustment::Component::kLink), "link");
  EXPECT_STREQ(WhatIfComponentName(WhatIfAdjustment::Component::kCpu), "cpu");
  EXPECT_STREQ(WhatIfComponentName(WhatIfAdjustment::Component::kDisk), "disk");
  EXPECT_STREQ(WhatIfComponentName(WhatIfAdjustment::Component::kRtt), "rtt");
}

WhatIfOptions SmallLteCell(WhatIfAdjustment::Component component) {
  WhatIfOptions opt;
  opt.wan.profile = WanProfileByName("lte");
  opt.wan.users = 2;
  opt.wan.duration = Duration::Seconds(4);
  opt.wan.seed = 1;
  opt.adjust.component = component;
  opt.adjust.speedup = 2.0;
  opt.adjust.rtt_delta_us = 40'000;
  return opt;
}

TEST(WhatIfTest, LinkSpeedupOnLteIsSaneAndInternallyConsistent) {
  WhatIfResult r =
      RunWhatIf(OsProfile::Tse(), SmallLteCell(WhatIfAdjustment::Component::kLink));
  EXPECT_EQ(r.component, "link");
  EXPECT_EQ(r.profile, "lte");
  EXPECT_GT(r.interactions, 0);
  // The tentpole invariant held for every baseline interaction the prediction replayed.
  EXPECT_EQ(r.critical_path_mismatches, 0);
  EXPECT_GT(r.baseline_p99_us, 0);
  // Speeding up the bottleneck link can only help the prediction (affected segments
  // scale by 1/2, nothing grows).
  EXPECT_LE(r.predicted_p99_us, r.baseline_p99_us);
  EXPECT_EQ(r.predicted_delta_us, r.baseline_p99_us - r.predicted_p99_us);
  EXPECT_EQ(r.achieved_delta_us, r.baseline_p99_us - r.achieved_p99_us);
  // Both arms ran with attribution on and exact accounting.
  EXPECT_EQ(r.baseline.blame.accounting_mismatches, 0);
  EXPECT_EQ(r.adjusted.blame.accounting_mismatches, 0);
  EXPECT_EQ(r.baseline.blame.net_mismatches, 0);
}

TEST(WhatIfTest, WhatIfBlockIsByteIdenticalAcrossReruns) {
  WhatIfOptions opt = SmallLteCell(WhatIfAdjustment::Component::kRtt);
  WhatIfResult a = RunWhatIf(OsProfile::Tse(), opt);
  WhatIfResult b = RunWhatIf(OsProfile::Tse(), opt);
  EXPECT_EQ(WhatIfBlockJson(a), WhatIfBlockJson(b));
  EXPECT_FALSE(WhatIfBlockJson(a).empty());
  // The full archival report carries the block plus both arms.
  std::string full = ToJson(a);
  EXPECT_NE(full.find("\"whatif\""), std::string::npos);
  EXPECT_NE(full.find("\"baseline\""), std::string::npos);
  EXPECT_NE(full.find("\"adjusted\""), std::string::npos);
  EXPECT_NE(full.find("\"rtt\""), std::string::npos);
}

// The virtual-hardware knobs on WanOptions: cpu_speed really re-simulates (the CPU
// stage shrinks), and the default 1.0 path is the stock simulation.
TEST(WhatIfTest, VirtualCpuSpeedShrinksCpuServiceInResimulation) {
  auto cpu_total = [](double cpu_speed) {
    WanOptions opt;
    opt.profile = WanProfileByName("lte");
    opt.users = 2;
    opt.duration = Duration::Seconds(4);
    opt.seed = 1;
    opt.cpu_speed = cpu_speed;
    AttributionConfig cfg;
    LatencyAttribution attribution(cfg);
    ObsConfig obs;
    obs.attribution = &attribution;
    RunWanPoint(OsProfile::Tse(), opt, &obs);
    AttributionResult r = attribution.Collect();
    for (const StageSummary& s : r.stages) {
      if (s.stage == "cpu-service") {
        return s.total_us;
      }
    }
    return int64_t{0};
  };
  int64_t stock = cpu_total(1.0);
  int64_t fast = cpu_total(8.0);
  EXPECT_GT(stock, 0);
  EXPECT_LT(fast, stock);
}

}  // namespace
}  // namespace tcs
