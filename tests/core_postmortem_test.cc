// Determinism contract for SLO postmortem bundles.
//
// A violation's forensic bundle (frozen Perfetto window + postmortem JSON) derives
// every byte from virtual time and the spec, so rerunning the same configuration —
// serially, under any ParallelSweep worker count, or with a tracer attached — must
// reproduce it exactly. These tests run violating experiments twice (and across --jobs
// 1 vs 4) and byte-compare the bundles, and pin down when the report JSON carries an
// "slo" block.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/admission.h"
#include "src/core/experiments.h"
#include "src/core/parallel_sweep.h"
#include "src/core/report.h"
#include "src/obs/trace.h"
#include "src/session/os_profile.h"

namespace tcs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// wall_ms is the one nondeterministic report field; the postmortem paths embed the
// (deliberately distinct) out dirs. Neutralize both before comparing reports.
std::string Normalize(std::string json, const std::string& out_dir) {
  static const std::regex kWall("\"wall_ms\":[-+0-9.eE]+");
  json = std::regex_replace(json, kWall, "\"wall_ms\":0");
  size_t pos;
  while ((pos = json.find(out_dir)) != std::string::npos) {
    json.replace(pos, out_dir.size(), "<out>");
  }
  return json;
}

struct TempDir {
  explicit TempDir(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("tcs_pm_") + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

ChaosOptions LossyChaos() {
  ChaosOptions opt;
  opt.loss_rate = 0.05;
  opt.duration = Duration::Seconds(5);
  opt.seed = 7;
  return opt;
}

SloSpec TightSlo(const std::string& name, const std::string& out_dir) {
  SloSpec spec;
  spec.max_worst_p99_ms = 1.0;  // no real run stays under 1 ms: guaranteed violation
  spec.name = name;
  spec.out_dir = out_dir;
  return spec;
}

TEST(PostmortemDeterminismTest, ChaosBundleIsByteIdenticalAcrossReruns) {
  TempDir dir_a("chaos_a");
  TempDir dir_b("chaos_b");
  auto run = [](const std::string& out_dir) {
    SloSpec spec = TightSlo("cell", out_dir);
    ObsConfig obs;
    obs.slo = &spec;
    return RunChaosPoint(OsProfile::Tse(), LossyChaos(), &obs);
  };
  ChaosPoint a = run(dir_a.path);
  ChaosPoint b = run(dir_b.path);
  ASSERT_TRUE(a.slo.active);
  ASSERT_FALSE(a.slo.passed);
  ASSERT_EQ(a.slo.postmortems.size(), 2u);
  EXPECT_EQ(a.slo.violated_at_us, b.slo.violated_at_us);
  std::string trace_a = ReadFile(dir_a.path + "/cell.trace.json");
  std::string trace_b = ReadFile(dir_b.path + "/cell.trace.json");
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_GT(trace_a.size(), 1000u);  // a real window, not just metadata
  EXPECT_EQ(ReadFile(dir_a.path + "/cell.postmortem.json"),
            ReadFile(dir_b.path + "/cell.postmortem.json"));
  // Chaos points always attribute, so the bundle carries a blame digest.
  EXPECT_NE(ReadFile(dir_a.path + "/cell.postmortem.json").find("\"blame\":"),
            std::string::npos);
}

TEST(PostmortemDeterminismTest, BundlesAreInvariantAcrossSweepWorkerCounts) {
  TempDir dir_serial("jobs1");
  TempDir dir_parallel("jobs4");
  auto sweep = [](const std::string& out_dir, int workers) {
    ParallelSweep sweep(workers);
    return sweep.Map(4, [&out_dir](int i) {
      ChaosOptions opt;
      opt.loss_rate = 0.02 * (i + 1);
      opt.duration = Duration::Seconds(5);
      opt.seed = SweepSeed(7, static_cast<uint64_t>(i));
      SloSpec spec = TightSlo("cell" + std::to_string(i), out_dir);
      ObsConfig obs;
      obs.slo = &spec;
      return RunChaosPoint(OsProfile::Tse(), opt, &obs);
    });
  };
  std::vector<ChaosPoint> serial = sweep(dir_serial.path, 1);
  std::vector<ChaosPoint> parallel = sweep(dir_parallel.path, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].slo.active);
    EXPECT_EQ(Normalize(ToJson(serial[i]), dir_serial.path),
              Normalize(ToJson(parallel[i]), dir_parallel.path))
        << "cell " << i << " report differs across worker counts";
    std::string stem = "/cell" + std::to_string(i);
    EXPECT_EQ(ReadFile(dir_serial.path + stem + ".trace.json"),
              ReadFile(dir_parallel.path + stem + ".trace.json"));
    EXPECT_EQ(ReadFile(dir_serial.path + stem + ".postmortem.json"),
              ReadFile(dir_parallel.path + stem + ".postmortem.json"));
  }
}

TEST(PostmortemDeterminismTest, ConsolidationBundleIsByteIdenticalAcrossReruns) {
  TempDir dir_a("cons_a");
  TempDir dir_b("cons_b");
  auto run = [](const std::string& out_dir) {
    ConsolidationOptions opt;
    opt.users = 3;
    opt.duration = Duration::Seconds(5);
    opt.seed = 1;
    opt.burst_cpu = Duration::Millis(200);
    SloSpec spec = TightSlo("cons", out_dir);
    ObsConfig obs;
    obs.slo = &spec;
    return RunConsolidation(OsProfile::Tse(), opt, &obs);
  };
  ConsolidationResult a = run(dir_a.path);
  ConsolidationResult b = run(dir_b.path);
  ASSERT_TRUE(a.slo.active);
  ASSERT_FALSE(a.slo.passed);
  EXPECT_EQ(a.slo.violated_at_us, b.slo.violated_at_us);
  EXPECT_EQ(ReadFile(dir_a.path + "/cons.trace.json"),
            ReadFile(dir_b.path + "/cons.trace.json"));
  EXPECT_EQ(ReadFile(dir_a.path + "/cons.postmortem.json"),
            ReadFile(dir_b.path + "/cons.postmortem.json"));
}

// Rewind re-runs a violating experiment with a tracer attached, so a traced rerun must
// replay the monitored run exactly: the same violation instant, the same bundle bytes,
// and the same report.
template <typename Result>
void ExpectTracedRerunReplays(const char* tag,
                              const std::function<Result(const ObsConfig*)>& run) {
  SCOPED_TRACE(tag);
  TempDir dir_plain(tag);
  TempDir dir_traced((std::string(tag) + "_traced").c_str());
  SloSpec plain_spec = TightSlo("cell", dir_plain.path);
  ObsConfig plain_obs;
  plain_obs.slo = &plain_spec;
  Result plain = run(&plain_obs);

  SloSpec traced_spec = TightSlo("cell", dir_traced.path);
  Tracer tracer;
  ObsConfig traced_obs;
  traced_obs.slo = &traced_spec;
  traced_obs.tracer = &tracer;
  Result traced = run(&traced_obs);

  ASSERT_TRUE(plain.slo.active);
  ASSERT_FALSE(plain.slo.passed);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(plain.slo.violated_at_us, traced.slo.violated_at_us);
  ASSERT_EQ(plain.slo.postmortems.size(), 2u);
  for (const char* suffix : {"/cell.trace.json", "/cell.postmortem.json"}) {
    EXPECT_EQ(ReadFile(dir_plain.path + suffix), ReadFile(dir_traced.path + suffix))
        << suffix;
  }
  EXPECT_EQ(Normalize(ToJson(plain), dir_plain.path),
            Normalize(ToJson(traced), dir_traced.path));
}

TEST(PostmortemDeterminismTest, TracedRerunReplaysTheRunExactly) {
  ExpectTracedRerunReplays<TypingUnderLoadResult>("typing", [](const ObsConfig* obs) {
    return RunTypingUnderLoad(OsProfile::Tse(), 2, Duration::Seconds(5), 1, 1, obs);
  });
  ExpectTracedRerunReplays<EndToEndResult>("e2e", [](const ObsConfig* obs) {
    EndToEndOptions opt;
    opt.sinks = 2;
    opt.duration = Duration::Seconds(5);
    return RunEndToEndLatency(OsProfile::Tse(), opt, obs);
  });
  ExpectTracedRerunReplays<ChaosPoint>("chaos", [](const ObsConfig* obs) {
    return RunChaosPoint(OsProfile::Tse(), LossyChaos(), obs);
  });
  ExpectTracedRerunReplays<ConsolidationResult>("consolidation", [](const ObsConfig* obs) {
    ConsolidationOptions opt;
    opt.users = 3;
    opt.duration = Duration::Seconds(4);
    opt.ram = Bytes::MiB(48);
    return RunConsolidation(OsProfile::Tse(), opt, obs);
  });
}

// The "ts" of every non-metadata event in a Tracer's JSON, in file order.
std::vector<int64_t> EventStamps(const std::string& json) {
  std::vector<int64_t> stamps;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    size_t ts = line.find("\"ts\":");
    if (line.find("\"ph\":\"M\"") == std::string::npos && ts != std::string::npos) {
      stamps.push_back(std::stoll(line.substr(ts + 5)));
    }
  }
  return stamps;
}

// The postmortem --rewind contract: the violating run re-executed with a tracer floored
// 500 ms before its violation hits the violation at the same instant, writes the
// monitored run's bundles byte for byte, and keeps only events stamped at or after the
// floor.
template <typename Result>
void ExpectRewoundReplayReproduces(const char* tag,
                                   const std::function<Result(const ObsConfig*)>& run) {
  SCOPED_TRACE(tag);
  TempDir dir_monitored(tag);
  TempDir dir_replay((std::string(tag) + "_replay").c_str());
  SloSpec spec = TightSlo("cell", dir_monitored.path);
  ObsConfig obs;
  obs.slo = &spec;
  Result monitored = run(&obs);
  ASSERT_TRUE(monitored.slo.active);
  ASSERT_FALSE(monitored.slo.passed);
  const int64_t violated_at_us = monitored.slo.violated_at_us;
  ASSERT_GT(violated_at_us, 500'000) << "no 500 ms lead-up to trace";

  TracerConfig floored;
  floored.from = TimePoint::FromMicros(violated_at_us - 500'000);
  Tracer tracer(floored);
  SloSpec replay_spec = TightSlo("cell", dir_replay.path);
  ObsConfig replay_obs;
  replay_obs.slo = &replay_spec;
  replay_obs.tracer = &tracer;
  Result replay = run(&replay_obs);

  EXPECT_EQ(replay.slo.violated_at_us, violated_at_us);
  for (const char* suffix : {"/cell.trace.json", "/cell.postmortem.json"}) {
    EXPECT_EQ(ReadFile(dir_monitored.path + suffix), ReadFile(dir_replay.path + suffix))
        << suffix;
  }
  std::vector<int64_t> stamps = EventStamps(tracer.ToJson());
  ASSERT_EQ(stamps.size(), tracer.event_count());
  ASSERT_FALSE(stamps.empty());
  for (int64_t ts : stamps) {
    ASSERT_GE(ts, violated_at_us - 500'000);
  }
}

TEST(CheckpointDifferential, RewoundReplayReproducesTheViolationInstant) {
  ExpectRewoundReplayReproduces<ConsolidationResult>(
      "rewind_consolidation", [](const ObsConfig* obs) {
        ConsolidationOptions opt;
        opt.users = 3;
        opt.duration = Duration::Seconds(4);
        opt.ram = Bytes::MiB(48);
        return RunConsolidation(OsProfile::Tse(), opt, obs);
      });
  ExpectRewoundReplayReproduces<ChaosPoint>("rewind_chaos", [](const ObsConfig* obs) {
    return RunChaosPoint(OsProfile::Tse(), LossyChaos(), obs);
  });
}

TEST(SloReportBlockTest, ReportJsonCarriesSloBlockOnlyWhenActive) {
  // Without an SloSpec the report must be byte-identical to the pre-SLO schema
  // (the golden corpus depends on this).
  ChaosPoint plain = RunChaosPoint(OsProfile::Tse(), LossyChaos());
  EXPECT_EQ(ToJson(plain).find("\"slo\":"), std::string::npos);

  SloSpec spec;
  spec.max_worst_p99_ms = 1.0;  // violated
  ObsConfig obs;
  obs.slo = &spec;
  ChaosPoint gated = RunChaosPoint(OsProfile::Tse(), LossyChaos(), &obs);
  std::string json = ToJson(gated);
  EXPECT_NE(json.find("\"slo\":{\"passed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"violating_objective\":\"worst_p99_ms\""), std::string::npos);
  // No out_dir => verdict in the report, no files on disk.
  EXPECT_TRUE(gated.slo.postmortems.empty());
}

TEST(SloReportBlockTest, PassingSloReportsInJsonWithoutBundle) {
  ChaosOptions opt;
  opt.duration = Duration::Seconds(5);  // fault-free: latencies stay tens of ms
  SloSpec spec;
  spec.max_worst_p99_ms = 10'000.0;  // absurdly lax: guaranteed pass
  ObsConfig obs;
  obs.slo = &spec;
  ChaosPoint point = RunChaosPoint(OsProfile::Tse(), opt, &obs);
  ASSERT_TRUE(point.slo.active);
  EXPECT_TRUE(point.slo.passed);
  EXPECT_EQ(point.slo.violated_at_us, -1);
  std::string json = ToJson(point);
  EXPECT_NE(json.find("\"slo\":{\"passed\":true"), std::string::npos);
}

}  // namespace
}  // namespace tcs
