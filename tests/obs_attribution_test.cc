#include "src/obs/attribution.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/core/parallel_sweep.h"
#include "src/core/report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/session/os_profile.h"

namespace tcs {
namespace {

using ProfileFactory = OsProfile (*)();

EndToEndResult RunAttributed(const OsProfile& profile, int sinks,
                             const FaultPlan& faults, LatencyAttribution& attribution,
                             uint64_t seed = 1,
                             Duration duration = Duration::Seconds(5)) {
  EndToEndOptions opt;
  opt.sinks = sinks;
  opt.duration = duration;
  opt.seed = seed;
  opt.faults = faults;
  ObsConfig obs;
  obs.attribution = &attribution;
  return RunEndToEndLatency(profile, opt, &obs);
}

FaultPlan LossyPlan() {
  FaultPlan plan;
  plan.link.loss_rate = 0.05;
  plan.link.flap_every = Duration::Millis(2000);
  plan.link.flap_duration = Duration::Millis(50);
  return plan;
}

// The tentpole invariant, as a property over the config matrix: for every committed
// interaction of every OS x load x fault configuration, the per-stage microseconds sum
// *exactly* to the end-to-end microseconds.
TEST(AttributionTest, StagesSumExactlyAcrossConfigMatrix) {
  const ProfileFactory profiles[] = {&OsProfile::Tse, &OsProfile::LinuxX,
                                     &OsProfile::LinuxSvr4};
  for (ProfileFactory make : profiles) {
    for (int sinks : {0, 5}) {
      for (bool faulted : {false, true}) {
        AttributionConfig cfg;
        cfg.keep_records = true;
        LatencyAttribution attribution(cfg);
        RunAttributed(make(), sinks, faulted ? LossyPlan() : FaultPlan{}, attribution);
        SCOPED_TRACE(make().name + (faulted ? " faulted" : " clean") + " sinks=" +
                     std::to_string(sinks));
        EXPECT_GT(attribution.committed(), 0);
        EXPECT_EQ(attribution.accounting_mismatches(), 0);
        for (const InteractionRecord& rec : attribution.records()) {
          ASSERT_EQ(rec.StageSum(), rec.total_us()) << "interaction " << rec.id;
          for (int s = 0; s < kAttrStageCount; ++s) {
            ASSERT_GE(rec.stage_us[s], 0) << "stage " << s;
          }
        }
      }
    }
  }
}

// Every minted id is either committed (as part of some batch) or still in flight when
// the run ends; commits can never exceed mints.
TEST(AttributionTest, MintedCoversCommittedKeystrokes) {
  AttributionConfig cfg;
  LatencyAttribution attribution(cfg);
  RunAttributed(OsProfile::Tse(), 0, FaultPlan{}, attribution);
  AttributionResult r = attribution.Collect();
  EXPECT_GT(r.keystrokes, 0);
  EXPECT_GE(r.keystrokes, r.interactions);  // batches coalesce >= 1 keystroke
  EXPECT_GE(static_cast<int64_t>(r.minted), r.keystrokes);
  // A clean fixed-duration run leaves at most a handful of keystrokes in flight.
  EXPECT_LE(static_cast<int64_t>(r.minted) - r.keystrokes, 8);
}

// Attribution is an observer: attaching an engine must not move a single simulated
// event or change any measured latency. The four legs come from the same record the
// engine commits, so each must match exactly.
TEST(AttributionTest, ObserverDoesNotPerturbTheRun) {
  EndToEndOptions opt;
  opt.sinks = 2;
  opt.duration = Duration::Seconds(5);
  EndToEndResult bare = RunEndToEndLatency(OsProfile::Tse(), opt);
  LatencyAttribution attribution;
  ObsConfig obs;
  obs.attribution = &attribution;
  EndToEndResult observed = RunEndToEndLatency(OsProfile::Tse(), opt, &obs);
  EXPECT_GT(bare.server_ms, 0.0);
  EXPECT_GT(bare.display_net_ms, 0.0);
  EXPECT_EQ(bare.input_net_ms, observed.input_net_ms);
  EXPECT_EQ(bare.server_ms, observed.server_ms);
  EXPECT_EQ(bare.display_net_ms, observed.display_net_ms);
  EXPECT_EQ(bare.client_ms, observed.client_ms);
  EXPECT_EQ(bare.total_ms, observed.total_ms);
  EXPECT_EQ(bare.updates, observed.updates);
  EXPECT_EQ(bare.run.events_executed, observed.run.events_executed);
  EXPECT_FALSE(bare.blame.active);
  EXPECT_TRUE(observed.blame.active);
}

// The typing experiment (server-only pipeline, no thin client) must balance too: its
// interactions end at display emission, and the display/client stages stay zero.
TEST(AttributionTest, TypingUnderLoadBalances) {
  AttributionConfig cfg;
  cfg.keep_records = true;
  LatencyAttribution attribution(cfg);
  ObsConfig obs;
  obs.attribution = &attribution;
  TypingUnderLoadResult r = RunTypingUnderLoad(OsProfile::Tse(), 2, Duration::Seconds(5),
                                               /*seed=*/1, /*processors=*/1, &obs);
  EXPECT_TRUE(r.blame.active);
  EXPECT_GT(attribution.committed(), 0);
  EXPECT_EQ(attribution.accounting_mismatches(), 0);
  for (const InteractionRecord& rec : attribution.records()) {
    ASSERT_EQ(rec.StageSum(), rec.total_us());
  }
}

// The paging experiment's keystroke touches an evicted working set, so its blame must
// land in the mem-stall stage.
TEST(AttributionTest, PagingBillsMemStall) {
  LatencyAttribution attribution;
  ObsConfig obs;
  obs.attribution = &attribution;
  PagingLatencyResult r =
      RunPagingLatency(OsProfile::LinuxX(), /*full_demand=*/true, /*runs=*/1,
                       /*seed=*/1, EvictionPolicy::kGlobalLru, &obs);
  EXPECT_TRUE(r.blame.active);
  EXPECT_EQ(r.blame.accounting_mismatches, 0);
  const StageSummary& mem =
      r.blame.stages[static_cast<size_t>(AttrStage::kMemStall)];
  EXPECT_EQ(mem.stage, "mem-stall");
  EXPECT_GT(mem.total_us, 0);
}

// FaultPlan composition: under a lossy plan the input-retry penalty must surface in the
// retransmit stage — and nowhere on a clean run — while the books still balance.
TEST(AttributionTest, RetransmitStageGrowsWithLoss) {
  auto retransmit_total = [](double loss) {
    FaultPlan plan;
    plan.link.loss_rate = loss;
    LatencyAttribution attribution;
    RunAttributed(OsProfile::Tse(), 0, plan, attribution);
    AttributionResult r = attribution.Collect();
    EXPECT_EQ(r.accounting_mismatches, 0);
    return r.stages[static_cast<size_t>(AttrStage::kRetransmit)].total_us;
  };
  EXPECT_EQ(retransmit_total(0.0), 0);
  int64_t light = retransmit_total(0.05);
  int64_t heavy = retransmit_total(0.25);
  EXPECT_GT(light, 0);
  EXPECT_GT(heavy, light);
}

// The blame sweep as tcsctl runs it: every config gets its own engine and a
// position-derived seed. Serialized output must be byte-identical across reruns and
// across worker counts.
std::string SweepBlameJson(int workers) {
  const ProfileFactory profiles[] = {&OsProfile::Tse, &OsProfile::LinuxX,
                                     &OsProfile::LinuxSvr4};
  const int sinks[] = {0, 5};
  constexpr int kConfigs = 3 * 2 * 2;  // profiles x sinks x {clean, faulted}
  ParallelSweep sweep(workers);
  auto jsons = sweep.Map(kConfigs, [&](int i) {
    ProfileFactory make = profiles[i % 3];
    int load = sinks[(i / 3) % 2];
    bool faulted = i >= kConfigs / 2;
    LatencyAttribution attribution;
    EndToEndResult r =
        RunAttributed(make(), load, faulted ? LossyPlan() : FaultPlan{}, attribution,
                      SweepSeed(7, static_cast<uint64_t>(i)), Duration::Seconds(3));
    return ToJson(r.blame);
  });
  std::string all;
  for (const std::string& j : jsons) {
    all += j;
    all += '\n';
  }
  return all;
}

TEST(AttributionTest, BlameJsonByteIdenticalAcrossWorkerCounts) {
  std::string serial = SweepBlameJson(1);
  EXPECT_EQ(serial, SweepBlameJson(1));  // rerun
  EXPECT_EQ(serial, SweepBlameJson(4));
  EXPECT_EQ(serial, SweepBlameJson(8));
  EXPECT_NE(serial.find("\"accounting_mismatches\":0"), std::string::npos);
}

TEST(AttributionTest, CollectReportsFixedStageOrderAndTopStage) {
  LatencyAttribution attribution;
  RunAttributed(OsProfile::Tse(), 5, FaultPlan{}, attribution);
  AttributionResult r = attribution.Collect();
  // The 8 classic stages, in fixed order. The 9th (degradation-hold) only appears once
  // a DegradationController actually held the pipeline; this run has none.
  ASSERT_EQ(r.stages.size(), static_cast<size_t>(kAttrStageCount) - 1);
  for (size_t s = 0; s < r.stages.size(); ++s) {
    EXPECT_EQ(r.stages[s].stage, AttrStageName(static_cast<AttrStage>(s)));
  }
  EXPECT_FALSE(r.top_stage.empty());
  // Under heavy sink load the run queue dominates the keystroke's life.
  EXPECT_EQ(r.top_stage, "sched-wait");
  // Percentiles are nearest-rank: observed samples, so p50 <= p99 <= max.
  EXPECT_LE(r.p50_total_us, r.p99_total_us);
  EXPECT_LE(r.p99_total_us, r.max_total_us);
  // Stage totals tie out against the end-to-end total.
  int64_t stage_sum = 0;
  for (const StageSummary& s : r.stages) {
    stage_sum += s.total_us;
  }
  EXPECT_EQ(stage_sum, r.total_us);
}

// Pulls the integer value following `"key":` out of a single JSON event line.
int64_t JsonIntField(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  if (pos == std::string::npos) {
    return -1;
  }
  return std::atoll(line.c_str() + pos + key.size() + 3);
}

// With a tracer attached, each interaction becomes a Perfetto flow: one "s" begin, "t"
// steps, and an "f" end (bound to the enclosing slice), all sharing the interaction id,
// spanning at least four component tracks (net, cpu, proto, client).
TEST(AttributionTest, FlowEventsLinkOneInteractionAcrossTracks) {
  TracerConfig tcfg;
  tcfg.categories = static_cast<uint32_t>(TraceCategory::kBlame);
  Tracer tracer(tcfg);
  AttributionConfig acfg;
  acfg.tracer = &tracer;
  LatencyAttribution attribution(acfg);
  ObsConfig obs;
  obs.tracer = &tracer;
  obs.attribution = &attribution;
  EndToEndOptions opt;
  opt.sinks = 0;
  opt.duration = Duration::Seconds(5);
  RunEndToEndLatency(OsProfile::Tse(), opt, &obs);

  std::string json = tracer.ToJson();
  std::map<int64_t, std::set<std::pair<int64_t, int64_t>>> tracks_by_flow;
  std::map<int64_t, std::string> phases_by_flow;  // concatenated in record order
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    char ph = 0;
    for (char c : {'s', 't', 'f'}) {
      if (line.find(std::string("\"ph\":\"") + c + "\"") != std::string::npos) {
        ph = c;
      }
    }
    if (ph == 0) {
      continue;
    }
    EXPECT_NE(line.find("\"name\":\"interaction\""), std::string::npos);
    if (ph == 'f') {
      EXPECT_NE(line.find("\"bp\":\"e\""), std::string::npos);
    }
    int64_t id = JsonIntField(line, "id");
    tracks_by_flow[id].insert({JsonIntField(line, "pid"), JsonIntField(line, "tid")});
    phases_by_flow[id] += ph;
  }
  ASSERT_FALSE(tracks_by_flow.empty());
  for (const auto& [id, phases] : phases_by_flow) {
    EXPECT_EQ(phases.front(), 's') << "flow " << id;
    EXPECT_EQ(phases.back(), 'f') << "flow " << id;
    EXPECT_GE(phases.size(), 3u) << "flow " << id;
    EXPECT_GE(tracks_by_flow[id].size(), 4u) << "flow " << id;
  }
}

// The pre-sketch reference: copy, sort, nearest-rank scan.
int64_t ReferenceNearestRank(std::vector<int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  auto n = static_cast<int64_t>(samples.size());
  auto rank = static_cast<int64_t>(q * static_cast<double>(n) + 0.999999999);
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

// A record whose stages sum to its total and whose display-net sub-stages sum to that
// stage. Even stages draw from a narrow range, so their samples repeat; degradation-hold
// is nonzero in a quarter of the records, so its summary appears.
InteractionRecord SyntheticRecord(std::mt19937_64& gen, uint64_t id) {
  std::uniform_int_distribution<int64_t> narrow(0, 40);
  std::uniform_int_distribution<int64_t> wide(0, 200'000);
  InteractionRecord rec;
  rec.id = id;
  rec.batch = 1 + static_cast<int>(id % 3);
  for (int s = 0; s < kAttrStageCount; ++s) {
    rec.stage_us[s] = s % 2 == 0 ? narrow(gen) : wide(gen);
  }
  if (id % 4 != 0) {
    rec.stage_us[static_cast<int>(AttrStage::kDegradationHold)] = 0;
  }
  int64_t remaining = rec.stage_us[static_cast<int>(AttrStage::kDisplayNet)];
  for (int s = 0; s + 1 < kNetSubStageCount; ++s) {
    rec.net_us[s] = std::uniform_int_distribution<int64_t>(0, remaining)(gen);
    remaining -= rec.net_us[s];
  }
  rec.net_us[kNetSubStageCount - 1] = remaining;
  rec.sent_us = static_cast<int64_t>(id) * 1000;
  rec.painted_us = rec.sent_us + rec.StageSum();
  return rec;
}

void ExpectSummaryMatches(const StageSummary& summary, const std::vector<int64_t>& samples) {
  SCOPED_TRACE(summary.stage);
  EXPECT_EQ(summary.p50_us, ReferenceNearestRank(samples, 0.50));
  EXPECT_EQ(summary.p99_us, ReferenceNearestRank(samples, 0.99));
  EXPECT_EQ(summary.max_us, *std::max_element(samples.begin(), samples.end()));
}

// Every p50, p99 and max in `r` against sort-and-scan over the first `n` records.
void ExpectNearestRankReference(const AttributionResult& r,
                                const std::vector<InteractionRecord>& records, size_t n) {
  std::vector<int64_t> totals;
  for (size_t i = 0; i < n; ++i) {
    totals.push_back(records[i].total_us());
  }
  EXPECT_EQ(r.p50_total_us, ReferenceNearestRank(totals, 0.50));
  EXPECT_EQ(r.p99_total_us, ReferenceNearestRank(totals, 0.99));
  EXPECT_EQ(r.max_total_us, *std::max_element(totals.begin(), totals.end()));
  ASSERT_EQ(r.stages.size(), static_cast<size_t>(kAttrStageCount));
  for (int s = 0; s < kAttrStageCount; ++s) {
    std::vector<int64_t> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(records[i].stage_us[s]);
    }
    ExpectSummaryMatches(r.stages[static_cast<size_t>(s)], samples);
  }
  ASSERT_EQ(r.net_stages.size(), static_cast<size_t>(kNetSubStageCount));
  for (int s = 0; s < kNetSubStageCount; ++s) {
    std::vector<int64_t> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(records[i].net_us[s]);
    }
    ExpectSummaryMatches(r.net_stages[static_cast<size_t>(s)], samples);
  }
}

// Collect() between commits must not change what a later Collect() reports: the final
// result equals a fresh engine's over the same records, and both answers are exact
// nearest-rank percentiles of the records committed so far.
TEST(AttributionTest, CollectBetweenCommitsMatchesAFreshEngineAndSortAndScan) {
  std::mt19937_64 gen(2024);
  std::vector<InteractionRecord> records;
  for (uint64_t id = 1; id <= 600; ++id) {
    records.push_back(SyntheticRecord(gen, id));
  }
  AttributionConfig cfg;
  cfg.decompose_network = true;
  LatencyAttribution live(cfg);
  const size_t mid = 250;
  for (size_t i = 0; i < mid; ++i) {
    live.Commit(records[i]);
  }
  AttributionResult first = live.Collect();
  EXPECT_EQ(first.interactions, static_cast<int64_t>(mid));
  ExpectNearestRankReference(first, records, mid);
  for (size_t i = mid; i < records.size(); ++i) {
    live.Commit(records[i]);
  }
  AttributionResult last = live.Collect();

  LatencyAttribution fresh(cfg);
  for (const InteractionRecord& rec : records) {
    fresh.Commit(rec);
  }
  EXPECT_EQ(ToJson(last), ToJson(fresh.Collect()));
  EXPECT_EQ(last.accounting_mismatches, 0);
  EXPECT_EQ(last.net_mismatches, 0);
  ExpectNearestRankReference(last, records, records.size());
}

}  // namespace
}  // namespace tcs
