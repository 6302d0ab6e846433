// Property suite for the per-interaction latency decomposition: every record's stages
// sum to the end-to-end latency to the microsecond, none is negative, and the
// display-net sub-stages sum to their stage, for every interaction across seeds and WAN
// profiles; the blame block and the records are byte-identical across reruns and sweep
// worker counts; degradation coalesce holds are billed to their own stage (not
// sched-wait); and the WAN backpressure gauges register on faulted runs.

#include "src/obs/attribution.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/client/thin_client.h"
#include "src/core/experiments.h"
#include "src/core/parallel_sweep.h"
#include "src/core/report.h"
#include "src/obs/metrics.h"
#include "src/session/os_profile.h"
#include "src/session/server.h"

namespace tcs {
namespace {

constexpr int Idx(AttrStage stage) { return static_cast<int>(stage); }

// One WAN cell with per-interaction records retained; an empty name is the plain-LAN
// differential baseline (no injector, no reliable channel).
struct CellResult {
  WanPoint point;
  std::vector<InteractionRecord> records;
};

CellResult RunCell(const std::string& profile_name, uint64_t seed, int users,
                   Duration duration, bool background = true,
                   Duration think_time = Duration::Millis(200)) {
  WanOptions opt;
  if (!profile_name.empty()) {
    opt.profile = WanProfileByName(profile_name);
  }
  opt.users = users;
  opt.duration = duration;
  opt.seed = seed;
  opt.background_session = background;
  opt.think_time = think_time;
  AttributionConfig cfg;
  cfg.keep_records = true;
  cfg.decompose_network = true;
  LatencyAttribution attribution(cfg);
  ObsConfig obs;
  obs.attribution = &attribution;
  CellResult r;
  r.point = RunWanPoint(OsProfile::Tse(), opt, &obs);
  for (const InteractionRecord& rec : attribution.records()) {
    r.records.push_back(rec);
  }
  return r;
}

// The invariant, per record: stages telescope to the end-to-end total, the display-net
// decomposition telescopes to the display-net stage, and no stage or sub-stage is
// negative, so the stages tile [sent, painted] in order.
void CheckRecord(const InteractionRecord& rec) {
  ASSERT_EQ(rec.StageSum(), rec.total_us()) << "interaction " << rec.id;
  ASSERT_EQ(rec.NetSum(), rec.stage_us[Idx(AttrStage::kDisplayNet)])
      << "interaction " << rec.id;
  for (int s = 0; s < kAttrStageCount; ++s) {
    ASSERT_GE(rec.stage_us[s], 0) << AttrStageName(static_cast<AttrStage>(s));
  }
  for (int s = 0; s < kNetSubStageCount; ++s) {
    ASSERT_GE(rec.net_us[s], 0) << NetSubStageName(static_cast<NetSubStage>(s));
  }
}

TEST(AttributionPropertyTest, StageSumEqualsEndToEndAcrossSeedsAndProfiles) {
  const std::string profiles[] = {"", "dsl", "lte", "satellite"};
  for (const std::string& profile : profiles) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE((profile.empty() ? std::string("lan") : profile) + " seed " +
                   std::to_string(seed));
      CellResult cell =
          RunCell(profile, seed, /*users=*/2, Duration::Seconds(2));
      ASSERT_FALSE(cell.records.empty());
      EXPECT_EQ(cell.point.blame.accounting_mismatches, 0);
      EXPECT_EQ(cell.point.blame.net_mismatches, 0);
      for (const InteractionRecord& rec : cell.records) {
        CheckRecord(rec);
      }
    }
  }
}

// The acceptance bar: a 64-user consolidated run under each WAN profile, every
// interaction's decomposition exact.
TEST(AttributionPropertyTest, SixtyFourUserConsolidatedRunStaysExact) {
  for (const std::string& profile : WanProfileNames()) {
    SCOPED_TRACE(profile);
    // 64 interactive users share ONE WAN link and one 64 MiB server in this model, so
    // the defaults (200 ms cadence, saturating background media) put every profile in
    // total congestion collapse — zero echoes ever paint. A 2 s think time, no media
    // flow, and 600 simulated seconds lets the login storm drain (64 desktop paints
    // over a 4 Mbps link alone take ~3 minutes) and commits hundreds of real
    // interactions per profile, each of which must be exact.
    CellResult cell = RunCell(profile, /*seed=*/7, /*users=*/64, Duration::Seconds(600),
                              /*background=*/false, /*think_time=*/Duration::Seconds(2));
    ASSERT_GT(cell.records.size(), 64u);  // every user echoed at least once
    EXPECT_EQ(cell.point.blame.accounting_mismatches, 0);
    EXPECT_EQ(cell.point.blame.net_mismatches, 0);
    for (const InteractionRecord& rec : cell.records) {
      CheckRecord(rec);
    }
  }
}

// Collect()'s aggregate view obeys the same telescoping: the five net sub-stage totals
// sum to the display-net stage total, and shares sum to 1 over nonzero stages.
TEST(AttributionPropertyTest, CollectedDecompositionSumsToNetworkTotal) {
  CellResult cell = RunCell("lte", /*seed=*/3, /*users=*/2, Duration::Seconds(4));
  const AttributionResult& blame = cell.point.blame;
  ASSERT_EQ(blame.net_stages.size(), static_cast<size_t>(kNetSubStageCount));
  int64_t net_sum = 0;
  for (const StageSummary& s : blame.net_stages) {
    net_sum += s.total_us;
  }
  int64_t display_net = 0;
  for (const StageSummary& s : blame.stages) {
    if (s.stage == "display-net") {
      display_net = s.total_us;
    }
  }
  EXPECT_GT(display_net, 0);
  EXPECT_EQ(net_sum, display_net);
  EXPECT_EQ(blame.net_mismatches, 0);
}

// Determinism contract: each cell's blame JSON and every record's stages are
// byte-identical across reruns and across sweep worker counts.
TEST(AttributionPropertyTest, BlameAndStagesByteIdenticalAcrossRerunsAndWorkers) {
  auto render = [](int workers) {
    ParallelSweep sweep(workers);
    auto parts = sweep.Map(2, [&](int i) {
      CellResult cell = RunCell(i == 0 ? "lte" : "dsl", /*seed=*/5, /*users=*/2,
                                Duration::Seconds(2));
      std::string out = ToJson(cell.point.blame) + '\n';
      for (const InteractionRecord& rec : cell.records) {
        out += std::to_string(rec.id) + ":" + std::to_string(rec.batch);
        for (int64_t us : rec.stage_us) {
          out += " " + std::to_string(us);
        }
        for (int64_t us : rec.net_us) {
          out += " " + std::to_string(us);
        }
        out += '\n';
      }
      return out;
    });
    return parts[0] + parts[1];
  };
  std::string one = render(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, render(1));  // rerun
  EXPECT_EQ(one, render(4));  // worker count
}

// Regression: a degradation coalesce hold is billed to the degradation-hold stage, not
// sched-wait — degraded runs must not masquerade as scheduler contention. A one-byte
// level step with the login backlog still draining at the ladder's first poll (2 s)
// forces an immediate upshift, so the second keystroke's batch is held for the full
// 40 ms coalesce window.
TEST(AttributionPropertyTest, CoalesceHoldBillsDegradationHoldNotSchedWait) {
  Simulator sim;
  ServerConfig cfg;
  cfg.degradation.enabled = true;
  cfg.degradation.level_step = Bytes::Of(1);
  AttributionConfig attr_cfg;
  attr_cfg.keep_records = true;
  LatencyAttribution attribution(attr_cfg);
  cfg.attribution = &attribution;
  Server server(sim, OsProfile::Tse(), cfg);
  server.AttachClient(ThinClientConfig::DesktopPc());
  sim.RunFor(Duration::Millis(1995));
  Session& session = server.Login();
  sim.RunFor(Duration::Millis(10));  // login bytes on the wire at 2 s: controller upshifts
  ASSERT_NE(server.degradation(), nullptr);
  ASSERT_GT(server.degradation()->level(), 0);
  server.Keystroke(session);
  sim.RunFor(Duration::Millis(1));
  server.Keystroke(session);  // lands while the first pass runs -> held batch
  sim.RunFor(Duration::Seconds(2));

  AttributionResult r = attribution.Collect();
  EXPECT_EQ(r.accounting_mismatches, 0);
  ASSERT_EQ(r.stages.size(), static_cast<size_t>(kAttrStageCount));  // hold accrued
  const StageSummary& hold = r.stages.back();
  ASSERT_EQ(hold.stage, "degradation-hold");
  // The held batch waited out (most of) the 40 ms coalesce window.
  EXPECT_GE(hold.max_us, 30'000);
  EXPECT_LE(hold.max_us, 40'000);

  // The held interaction carries the hold as its own stage and still tiles.
  bool saw_hold = false;
  for (const InteractionRecord& rec : attribution.records()) {
    CheckRecord(rec);
    if (rec.stage_us[Idx(AttrStage::kDegradationHold)] > 0) {
      saw_hold = true;
      // The hold must come out of the wait, not inflate it: sched-wait and the hold are
      // disjoint intervals of [arrived, pass_start].
      EXPECT_LE(rec.stage_us[Idx(AttrStage::kSchedWait)] +
                    rec.stage_us[Idx(AttrStage::kDegradationHold)],
                rec.total_us());
    }
  }
  EXPECT_TRUE(saw_hold);
}

// The WAN backpressure gauges register on faulted runs (and only there, so fault-free
// metric output keeps its exact bytes).
TEST(AttributionPropertyTest, WanBackpressureGaugesRegisterOnFaultedRuns) {
  auto gauge_names = [](const ServerConfig& cfg, MetricsRegistry& registry) {
    Simulator sim;
    Server server(sim, OsProfile::Tse(), cfg);
    std::vector<std::string> names;
    for (const MetricsRegistry::Gauge& g : registry.gauges()) {
      names.push_back(g.name);
    }
    return names;
  };
  auto has = [](const std::vector<std::string>& names, const std::string& want) {
    for (const std::string& n : names) {
      if (n == want) {
        return true;
      }
    }
    return false;
  };

  MetricsRegistry clean_registry;
  ServerConfig clean_cfg;
  clean_cfg.metrics = &clean_registry;
  std::vector<std::string> clean = gauge_names(clean_cfg, clean_registry);
  EXPECT_FALSE(has(clean, "wan_queue_depth"));
  EXPECT_FALSE(has(clean, "reliable_window_fill"));

  MetricsRegistry wan_registry;
  ServerConfig wan_cfg;
  wan_cfg.metrics = &wan_registry;
  WanProfile lte = WanProfileByName("lte");
  wan_cfg.faults.link.wan.extra_delay = lte.extra_delay;
  wan_cfg.faults.link.wan.down_rate = lte.down_rate;
  wan_cfg.faults.link.wan.up_rate = lte.up_rate;
  wan_cfg.faults.link.wan.queue_bytes = lte.queue_bytes;
  std::vector<std::string> wan = gauge_names(wan_cfg, wan_registry);
  EXPECT_TRUE(has(wan, "wan_queue_depth"));
  EXPECT_TRUE(has(wan, "reliable_window_fill"));

  // Both gauges poll clean on an idle server: empty queue, empty window.
  Simulator sim;
  MetricsRegistry registry;
  wan_cfg.metrics = &registry;
  Server server(sim, OsProfile::Tse(), wan_cfg);
  for (const MetricsRegistry::Gauge& g : registry.gauges()) {
    if (g.name == "wan_queue_depth" || g.name == "reliable_window_fill") {
      EXPECT_EQ(g.poll(), 0.0) << g.name;
    }
  }
}

}  // namespace
}  // namespace tcs
