#include "src/obs/slo.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct TempDir {
  TempDir() {
    path = (std::filesystem::temp_directory_path() /
            ("tcs_slo_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(SloSpecTest, DefaultSpecChecksNothing) {
  SloSpec spec;
  EXPECT_FALSE(spec.Any());
  spec.max_worst_p99_ms = 50.0;
  EXPECT_TRUE(spec.Any());
  SloSpec starved;
  starved.max_starved_fraction = 0.0;  // zero is a real limit for the fraction
  EXPECT_TRUE(starved.Any());
}

TEST(SloWatchdogTest, PassingRunReportsEveryObjectiveInFixedOrder) {
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.max_worst_p99_ms = 100.0;
  spec.max_starved_fraction = 0.25;
  spec.min_availability = 0.9;
  spec.max_link_backlog_bytes = 1 << 20;
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  watchdog.SetWorstP99Source([] { return 12.0; });
  watchdog.SetStarvationSource([] { return 0.0; });
  watchdog.SetLinkBacklogSource([] { return int64_t{4096}; });
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(1'000'000));
  SloReport report = watchdog.FinishRun(0.99);
  EXPECT_TRUE(report.active);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.violated_at_us, -1);
  ASSERT_EQ(report.objectives.size(), 4u);
  EXPECT_EQ(report.objectives[0].objective, "worst_p99_ms");
  EXPECT_EQ(report.objectives[1].objective, "starved_fraction");
  EXPECT_EQ(report.objectives[2].objective, "availability");
  EXPECT_EQ(report.objectives[3].objective, "link_backlog_bytes");
  EXPECT_FALSE(recorder.frozen());
}

TEST(SloWatchdogTest, LiveP99ViolationFreezesAtFirstFailingCheck) {
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.max_worst_p99_ms = 50.0;
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  // The p99 crosses the limit somewhere in (300 ms, 400 ms]; the 400 ms check is the
  // first to see it.
  watchdog.SetWorstP99Source(
      [&sim] { return sim.Now().ToMicros() > 300'000 ? 80.0 : 10.0; });
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(1'000'000));
  EXPECT_TRUE(watchdog.violated());
  EXPECT_TRUE(recorder.frozen());
  EXPECT_EQ(recorder.frozen_at().ToMicros(), 400'000);
  SloReport report = watchdog.FinishRun();
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.violated_at_us, 400'000);
  EXPECT_EQ(report.violating_objective, "worst_p99_ms");
}

TEST(SloWatchdogTest, EndOfRunStarvationFailureFreezesLate) {
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.max_starved_fraction = 0.1;
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  watchdog.SetStarvationSource([] { return 0.5; });
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(2'000'000));
  // Starvation is a whole-run objective: nothing trips during the run.
  EXPECT_FALSE(watchdog.violated());
  SloReport report = watchdog.FinishRun();
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.violating_objective, "starved_fraction");
  EXPECT_EQ(report.violated_at_us, 2'000'000);
  EXPECT_TRUE(recorder.frozen());
}

TEST(SloWatchdogTest, AvailabilityComesFromFinishRunArgument) {
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.min_availability = 0.95;
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(100'000));
  SloReport report = watchdog.FinishRun(0.8);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.violating_objective, "availability");
  ASSERT_EQ(report.objectives.size(), 1u);
  EXPECT_DOUBLE_EQ(report.objectives[0].observed, 0.8);
}

TEST(SloWatchdogTest, BacklogObjectiveReportsThePeak) {
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.max_link_backlog_bytes = 10'000;
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  // Rises to a peak mid-run and drains; the peak is what the report must show.
  watchdog.SetLinkBacklogSource([&sim] {
    int64_t t_ms = sim.Now().ToMicros() / 1000;
    return t_ms == 500 ? int64_t{9000} : int64_t{1000};
  });
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(1'000'000));
  SloReport report = watchdog.FinishRun();
  EXPECT_TRUE(report.passed);  // 9000 < 10000: peak approached but never crossed
  ASSERT_EQ(report.objectives.size(), 1u);
  EXPECT_DOUBLE_EQ(report.objectives[0].observed, 9000.0);
}

TEST(SloWatchdogTest, ViolationSnapshotsGaugesAndWritesBundle) {
  TempDir tmp;
  auto run_once = [&tmp](const std::string& name) {
    Simulator sim;
    FlightRecorder recorder;
    MetricsRegistry metrics;
    metrics.AddGauge("resident_mib", [] { return 37.5; });
    SloSpec spec;
    spec.max_worst_p99_ms = 50.0;
    spec.name = name;
    spec.out_dir = tmp.path;
    SloWatchdog watchdog(sim, spec, &recorder, &metrics, nullptr);
    watchdog.SetWorstP99Source(
        [&sim] { return sim.Now().ToMicros() >= 500'000 ? 99.0 : 1.0; });
    recorder.Instant(TraceCategory::kSession, "keystroke", TimePoint::FromMicros(1));
    watchdog.Start();
    sim.RunUntil(TimePoint::FromMicros(1'000'000));
    return watchdog.FinishRun();
  };
  SloReport report = run_once("case_a");
  ASSERT_EQ(report.postmortems.size(), 2u);
  EXPECT_EQ(report.postmortems[0], tmp.path + "/case_a.trace.json");
  EXPECT_EQ(report.postmortems[1], tmp.path + "/case_a.postmortem.json");
  std::string trace = ReadFile(report.postmortems[0]);
  std::string pm = ReadFile(report.postmortems[1]);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("slo-violation"), std::string::npos);
  EXPECT_NE(pm.find("\"violating_objective\":\"worst_p99_ms\""), std::string::npos);
  EXPECT_NE(pm.find("\"name\":\"resident_mib\""), std::string::npos);
  EXPECT_NE(pm.find("\"window\":{"), std::string::npos);

  // Identical spec + identical virtual-time history => byte-identical bundle.
  SloReport rerun = run_once("case_b");
  EXPECT_EQ(trace, ReadFile(rerun.postmortems[0]));
  std::string pm_b = ReadFile(rerun.postmortems[1]);
  EXPECT_NE(pm_b.find("\"slo\":\"case_b\""), std::string::npos);
}

TEST(SloWatchdogTest, NoBundleWithoutOutDir) {
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.max_worst_p99_ms = 1.0;
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  watchdog.SetWorstP99Source([] { return 100.0; });
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(200'000));
  SloReport report = watchdog.FinishRun();
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.postmortems.empty());
}

TEST(SloWatchdogTest, UncreatableOutDirWritesNoBundleAndDoesNotThrow) {
  TempDir tmp;
  std::filesystem::create_directories(tmp.path);
  std::string blocker = tmp.path + "/not_a_dir";
  std::ofstream(blocker) << "a regular file";
  Simulator sim;
  FlightRecorder recorder;
  SloSpec spec;
  spec.max_worst_p99_ms = 1.0;
  spec.out_dir = blocker + "/sub";
  SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr);
  watchdog.SetWorstP99Source([] { return 100.0; });
  watchdog.Start();
  sim.RunUntil(TimePoint::FromMicros(200'000));
  SloReport report;
  EXPECT_NO_THROW(report = watchdog.FinishRun());
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.postmortems.empty());
}

TEST(SloReportTest, ToJsonRendersObjectivesAndPostmortems) {
  SloReport r;
  r.active = true;
  r.passed = false;
  r.violated_at_us = 123456;
  r.violating_objective = "worst_p99_ms";
  SloObjectiveResult o;
  o.objective = "worst_p99_ms";
  o.limit = 50.0;
  o.observed = 80.5;
  o.passed = false;
  r.objectives.push_back(o);
  r.postmortems.push_back("postmortems/run.trace.json");
  std::string json = ToJson(r);
  EXPECT_EQ(json,
            "{\"passed\":false,\"violated_at_us\":123456,"
            "\"violating_objective\":\"worst_p99_ms\",\"objectives\":"
            "[{\"objective\":\"worst_p99_ms\",\"limit\":50,\"observed\":80.5,"
            "\"passed\":false}],\"postmortems\":"
            "[{\"path\":\"postmortems/run.trace.json\"}]}");
}

}  // namespace
}  // namespace tcs
