#include "src/obs/metrics.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

TEST(PeriodicSamplerTest, SamplesEveryPeriodOfVirtualTime) {
  Simulator sim;
  MetricsRegistry registry;
  int polls = 0;
  registry.AddGauge("depth", [&polls] { return static_cast<double>(++polls); });
  PeriodicSampler sampler(sim, registry, Duration::Millis(100));
  sampler.Start(Duration::Millis(100));
  sim.RunUntil(TimePoint::FromMicros(1'000'000));
  // One sample per 100 ms over 1 s of virtual time: t = 100 ms .. 1000 ms.
  EXPECT_EQ(sampler.samples_taken(), 10);
  EXPECT_EQ(polls, 10);
  ASSERT_EQ(sampler.gauge_count(), 1u);
  EXPECT_GE(sampler.series(0).bucket_count(), 9u);
}

TEST(PeriodicSamplerTest, CsvHasHeaderAndOneRowPerBucket) {
  Simulator sim;
  MetricsRegistry registry;
  registry.AddGauge("runq_depth", [] { return 2.0; });
  registry.AddGauge("resident_pages", [] { return 512.0; });
  PeriodicSampler sampler(sim, registry, Duration::Millis(100));
  sampler.Start();
  sim.RunUntil(TimePoint::FromMicros(300'000));
  std::ostringstream out;
  sampler.WriteCsv(out);
  std::string csv = out.str();
  EXPECT_EQ(csv.find("time_s,runq_depth,resident_pages\n"), 0u);
  EXPECT_NE(csv.find(",2,512\n"), std::string::npos);
}

TEST(PeriodicSamplerTest, MirrorsSamplesAsTracerCounterEvents) {
  Simulator sim;
  MetricsRegistry registry;
  registry.AddGauge("backlog", [] { return 1.5; });
  Tracer tracer;
  PeriodicSampler sampler(sim, registry, Duration::Millis(100), &tracer);
  sampler.Start(Duration::Millis(100));
  sim.RunUntil(TimePoint::FromMicros(200'000));
  EXPECT_EQ(tracer.event_count(), 2u);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"backlog\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
}

TEST(PeriodicSamplerTest, GaugesRegisteredAfterConstructionGetSeries) {
  Simulator sim;
  MetricsRegistry registry;
  registry.AddGauge("first", [] { return 1.0; });
  PeriodicSampler sampler(sim, registry, Duration::Millis(100));
  registry.AddGauge("late", [] { return 9.0; });
  sampler.Start();
  sim.RunUntil(TimePoint::FromMicros(200'000));
  ASSERT_EQ(sampler.gauge_count(), 2u);
  double late_total = 0.0;
  for (size_t i = 0; i < sampler.series(1).bucket_count(); ++i) {
    late_total += sampler.series(1).Sum(i);
  }
  EXPECT_GT(late_total, 0.0);
}

}  // namespace
}  // namespace tcs
