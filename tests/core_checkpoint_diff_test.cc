// Differential resume-vs-cold harness: the tentpole guarantee.
//
// A consolidation run forked from a mid-flight snapshot must be indistinguishable from
// the run that never stopped: every report field (modulo wall_ms), every per-user stall
// sample to the microsecond, every kernel counter, and the full end-of-run dynamic
// state (compared as a byte-identical end snapshot). The sweep crosses capture points
// spanning the run's phases — mid-login-storm, mid-page-in (first keystrokes against a
// cold working set), mid-retransmit steady state, mid-degradation-upshift (controller
// just armed), and deep steady state under WAN pathology — with LAN/dsl/lte/satellite
// link conditions and ten seeds.

#include "src/core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/obs/slo.h"
#include "src/session/os_profile.h"
#include "src/sim/snapshot.h"

namespace tcs {
namespace {

ConsolidationOptions BaseOptions(uint64_t seed) {
  ConsolidationOptions o;
  o.users = 3;
  o.duration = Duration::Millis(2500);
  o.seed = seed;
  o.ram = Bytes::MiB(48);  // small enough that login and typing page
  o.burst_cpu = Duration::Millis(100);
  o.burst_period = Duration::Seconds(2);
  o.sinks = 1;
  return o;
}

void ExpectSloEqual(const SloReport& a, const SloReport& b) {
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.violated_at_us, b.violated_at_us);
  EXPECT_EQ(a.violating_objective, b.violating_objective);
  ASSERT_EQ(a.objectives.size(), b.objectives.size());
  for (size_t i = 0; i < a.objectives.size(); ++i) {
    EXPECT_EQ(a.objectives[i].objective, b.objectives[i].objective);
    EXPECT_EQ(a.objectives[i].limit, b.objectives[i].limit);
    EXPECT_EQ(a.objectives[i].observed, b.objectives[i].observed);
    EXPECT_EQ(a.objectives[i].passed, b.objectives[i].passed);
  }
  EXPECT_EQ(a.postmortems, b.postmortems);
}

// Field-exact equality, doubles compared bitwise; wall_ms is the one excluded field.
void ExpectResultsEqual(const ConsolidationResult& cold,
                        const ConsolidationResult& resumed) {
  EXPECT_EQ(cold.os_name, resumed.os_name);
  EXPECT_EQ(cold.protocol, resumed.protocol);
  EXPECT_EQ(cold.users, resumed.users);
  EXPECT_EQ(cold.cpu_utilization, resumed.cpu_utilization);
  EXPECT_EQ(cold.link_utilization, resumed.link_utilization);
  EXPECT_EQ(cold.resident_pages, resumed.resident_pages);
  EXPECT_EQ(cold.total_frames, resumed.total_frames);
  EXPECT_EQ(cold.shared_segments, resumed.shared_segments);
  EXPECT_EQ(cold.shared_attaches, resumed.shared_attaches);
  EXPECT_EQ(cold.page_faults, resumed.page_faults);
  EXPECT_EQ(cold.coalesced_waits, resumed.coalesced_waits);
  EXPECT_EQ(cold.avg_stall_ms, resumed.avg_stall_ms);
  EXPECT_EQ(cold.worst_stall_ms, resumed.worst_stall_ms);
  EXPECT_EQ(cold.worst_p99_stall_ms, resumed.worst_p99_stall_ms);
  ASSERT_EQ(cold.per_user.size(), resumed.per_user.size());
  for (size_t u = 0; u < cold.per_user.size(); ++u) {
    SCOPED_TRACE("user " + std::to_string(u));
    const UserStallStats& a = cold.per_user[u];
    const UserStallStats& b = resumed.per_user[u];
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.avg_stall_ms, b.avg_stall_ms);
    EXPECT_EQ(a.max_stall_ms, b.max_stall_ms);
    EXPECT_EQ(a.jitter_ms, b.jitter_ms);
    EXPECT_EQ(a.p50_stall_ms, b.p50_stall_ms);
    EXPECT_EQ(a.p99_stall_ms, b.p99_stall_ms);
    EXPECT_EQ(a.wire_bytes.count(), b.wire_bytes.count());
    EXPECT_EQ(a.link_share, b.link_share);
    // The sample-for-sample guarantee: exact microseconds, in arrival order.
    EXPECT_EQ(a.stall_samples_us, b.stall_samples_us);
  }
  ExpectSloEqual(cold.slo, resumed.slo);
  EXPECT_EQ(cold.run.events_executed, resumed.run.events_executed);
  EXPECT_EQ(cold.run.pending_events, resumed.run.pending_events);
}

void ExpectSameBytes(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  if (a == b) {
    return;
  }
  auto sa = SnapshotSectionSpans(a);
  auto sb = SnapshotSectionSpans(b);
  for (const auto& [tag, span] : sa) {
    auto it = sb.find(tag);
    if (it == sb.end()) {
      ADD_FAILURE() << "section " << CheckpointSectionName(tag) << " missing";
      continue;
    }
    bool same =
        (span.second - span.first) == (it->second.second - it->second.first) &&
        std::equal(a.begin() + static_cast<ptrdiff_t>(span.first),
                   a.begin() + static_cast<ptrdiff_t>(span.second),
                   b.begin() + static_cast<ptrdiff_t>(it->second.first));
    EXPECT_TRUE(same) << "section " << CheckpointSectionName(tag)
                      << " diverges between resumed and cold end state";
  }
  ADD_FAILURE() << "end-state snapshots differ";
}

struct LinkCondition {
  const char* name;  // "" = LAN
  bool degrade;
};

constexpr LinkCondition kConditions[] = {
    {"", false},
    {"dsl", true},
    {"lte", true},
    {"satellite", true},
};

// The run's phase landmarks (start_delay = 1 s, degradation arms at 2 s, end 3.5 s):
// mid-login-storm, mid-page-in (first keystrokes fault their working sets in),
// mid-retransmit steady typing, mid-degradation-upshift, deep pathology steady state.
constexpr int64_t kCapturePointsMs[] = {200, 1200, 1800, 2200, 3000};

TEST(CheckpointDifferential, ResumeMatchesColdAcrossConditionsAndSeeds) {
  for (const LinkCondition& cond : kConditions) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(std::string("condition ") +
                   (cond.name[0] != '\0' ? cond.name : "lan") + " seed " +
                   std::to_string(seed));
      ConsolidationOptions options = BaseOptions(seed);
      if (cond.name[0] != '\0') {
        options.wan = WanProfileByName(cond.name);
      }
      options.degrade = cond.degrade;

      // The cold arm pauses at each capture point to snapshot — pausing the event loop
      // is invisible to the model, so this run IS the cold run.
      ConsolidationRun cold_run(OsProfile::Tse(), options);
      std::vector<std::vector<uint8_t>> snaps;
      for (int64_t ms : kCapturePointsMs) {
        cold_run.RunUntil(TimePoint::Zero() + Duration::Millis(ms));
        snaps.push_back(cold_run.Snapshot());
      }
      cold_run.RunToEnd();
      std::vector<uint8_t> cold_end = cold_run.Snapshot();
      ConsolidationResult cold = cold_run.Finish();

      for (size_t i = 0; i < snaps.size(); ++i) {
        SCOPED_TRACE("capture point " + std::to_string(kCapturePointsMs[i]) + " ms");
        ConsolidationRun fork(OsProfile::Tse(), options);
        fork.Restore(snaps[i]);
        fork.RunToEnd();
        ExpectSameBytes(cold_end, fork.Snapshot());
        ExpectResultsEqual(cold, fork.Finish());
      }
    }
  }
}

TEST(CheckpointDifferential, ResumeMatchesColdWithSloWatchdog) {
  ConsolidationOptions options = BaseOptions(4);
  options.wan = WanProfileByName("lte");
  options.degrade = true;
  SloSpec spec;
  spec.max_worst_p99_ms = 10000.0;  // generous: exercises the live checks, not freezes
  spec.max_link_backlog_bytes = 512 * 1024 * 1024;
  ObsConfig obs;
  obs.slo = &spec;

  ConsolidationRun cold_run(OsProfile::Tse(), options, &obs);
  cold_run.RunUntil(TimePoint::Zero() + Duration::Millis(2200));
  std::vector<uint8_t> snap = cold_run.Snapshot();
  cold_run.RunToEnd();
  std::vector<uint8_t> cold_end = cold_run.Snapshot();
  ConsolidationResult cold = cold_run.Finish();

  ObsConfig fork_obs;
  fork_obs.slo = &spec;
  ConsolidationRun fork(OsProfile::Tse(), options, &fork_obs);
  fork.Restore(snap);
  fork.RunToEnd();
  ExpectSameBytes(cold_end, fork.Snapshot());
  ExpectResultsEqual(cold, fork.Finish());
}

// The postmortem --rewind contract: fork from a checkpoint taken before an SLO
// violation and the replay hits the violation at the exact same virtual instant.
TEST(CheckpointDifferential, RewoundReplayReproducesTheViolationInstant) {
  ConsolidationOptions options = BaseOptions(2);
  options.duration = Duration::Seconds(4);
  SloSpec spec;
  // No real run with live samples stays under 1 ms. The workload must actually produce
  // display updates: the live watchdog only sees *sampled* stalls (the total-starvation
  // penalty is a whole-run score), so an overcommitted config that thrashes every user
  // into zero updates would never trip it. With this shape the violation lands at the
  // first 100 ms check after typing starts (~1.3 s virtual) — comfortably past the
  // 250/500/750 ms checkpoints, since typists only begin at the default 1 s start_delay.
  spec.max_worst_p99_ms = 1.0;
  ObsConfig obs;
  obs.slo = &spec;

  ConsolidationRun monitored(OsProfile::Tse(), options, &obs);
  std::vector<std::pair<TimePoint, std::vector<uint8_t>>> ring;
  TimePoint end = monitored.end_time();
  for (TimePoint t = TimePoint::Zero() + Duration::Millis(250); t <= end;
       t = t + Duration::Millis(250)) {
    monitored.RunUntil(t);
    if (monitored.SloViolated()) {
      break;
    }
    ring.emplace_back(t, monitored.Snapshot());
  }
  ASSERT_TRUE(monitored.SloViolated())
      << "workload did not trip the SLO; tighten the spec";
  int64_t violated_at_us = monitored.SloViolatedAtUs();

  // Newest checkpoint at least 500 virtual ms before the violation.
  const std::vector<uint8_t>* chosen = nullptr;
  for (const auto& [t, blob] : ring) {
    if (t.ToMicros() <= violated_at_us - 500 * 1000) {
      chosen = &blob;
    }
  }
  ASSERT_NE(chosen, nullptr);

  ObsConfig replay_obs;
  replay_obs.slo = &spec;
  ConsolidationRun replay(OsProfile::Tse(), options, &replay_obs);
  replay.Restore(*chosen);
  replay.RunToEnd();
  EXPECT_TRUE(replay.SloViolated());
  EXPECT_EQ(replay.SloViolatedAtUs(), violated_at_us);
}

}  // namespace
}  // namespace tcs
