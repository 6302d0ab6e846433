#include "src/obs/trace.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/core/parallel_sweep.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/session/os_profile.h"

// Allocation counter for the null-sink test. Overriding the global operators in this
// binary lets the test assert that filtered-out trace calls perform zero allocations.
namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tcs {
namespace {

std::string ObservedTypingTrace(uint64_t seed, int sinks, uint32_t categories) {
  Tracer tracer(TracerConfig{categories});
  ObsConfig obs;
  obs.tracer = &tracer;
  RunTypingUnderLoad(OsProfile::Tse(), sinks, Duration::Seconds(5), seed,
                     /*processors=*/1, &obs);
  return tracer.ToJson();
}

TEST(TracerTest, TracksGroupByProcessInRegistrationOrder) {
  Tracer tracer;
  TraceTrack a = tracer.RegisterTrack("cpu", "cpu0");
  TraceTrack b = tracer.RegisterTrack("cpu", "sched");
  TraceTrack c = tracer.RegisterTrack("mem", "pager");
  EXPECT_EQ(a.pid, b.pid);
  EXPECT_NE(a.tid, b.tid);
  EXPECT_NE(a.pid, c.pid);
  EXPECT_EQ(tracer.track_count(), 3u);
}

TEST(TracerTest, CategoryFilteringDropsEventsInsideTheTracer) {
  Tracer tracer(TracerConfig{static_cast<uint32_t>(TraceCategory::kCpu)});
  TraceTrack track = tracer.RegisterTrack("cpu", "cpu0");
  tracer.Span(TraceCategory::kCpu, "seg", track, TimePoint::FromMicros(0),
              TimePoint::FromMicros(10));
  tracer.Instant(TraceCategory::kMem, "fault", track, TimePoint::FromMicros(5));
  tracer.Counter(TraceCategory::kSim, "pending", track, TimePoint::FromMicros(5), 3.0);
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_TRUE(tracer.Enabled(TraceCategory::kCpu));
  EXPECT_FALSE(tracer.Enabled(TraceCategory::kMem));
}

TEST(TracerTest, InternReturnsStablePointerPerString) {
  const char* a = InternName("editor");
  const char* b = InternName(std::string("edi") + "tor");
  const char* c = InternName("hog");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "editor");
  // The table outlives every tracer: no sink owns the names.
  { Tracer tracer; }
  EXPECT_EQ(InternName("editor"), a);
}

TEST(TracerTest, JsonCarriesTrackMetadataAndArgs) {
  Tracer tracer;
  TraceTrack track = tracer.RegisterTrack("net", "link");
  tracer.Span(TraceCategory::kNet, "frame", track, TimePoint::FromMicros(100),
              TimePoint::FromMicros(250), "bytes", 1500);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":150"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1500"), std::string::npos);
}

// Registers two tracks and records one event of each kind around t = 100 us; with
// `early` false, only the events stamped at or after 100 us.
void RecordAroundHundredMicros(Tracer& tracer, bool early) {
  TraceTrack cpu = tracer.RegisterTrack("cpu", "cpu0");
  TraceTrack net = tracer.RegisterTrack("net", "link");
  auto at = [](int64_t us) { return TimePoint::FromMicros(us); };
  if (early) {
    tracer.Instant(TraceCategory::kNet, "boot", net, at(0));
    // A span is stamped by its start, so one that runs across the floor goes too.
    tracer.Span(TraceCategory::kCpu, "straddle", cpu, at(50), at(150));
    tracer.Instant(TraceCategory::kNet, "early", net, at(99), "seq", 1);
  }
  tracer.Instant(TraceCategory::kNet, "at-floor", net, at(100), "seq", 2);
  tracer.Counter(TraceCategory::kSim, "pending", cpu, at(120), 4.0);
  tracer.Span(TraceCategory::kCpu, "late", cpu, at(130), at(140), "prio", 9);
  tracer.FlowEnd(TraceCategory::kBlame, "flow", net, at(200), 7);
}

TEST(TracerTest, FromDropsEarlierEventsAndKeepsTracks) {
  TracerConfig floor_at_100;
  floor_at_100.from = TimePoint::FromMicros(100);
  Tracer floored(floor_at_100);
  RecordAroundHundredMicros(floored, /*early=*/true);
  Tracer later_only;
  RecordAroundHundredMicros(later_only, /*early=*/false);
  EXPECT_EQ(floored.event_count(), 4u);
  EXPECT_EQ(floored.track_count(), 2u);
  // Same tracks, and the kept events in the order they were recorded.
  EXPECT_EQ(floored.ToJson(), later_only.ToJson());

  TracerConfig floor_at_zero;
  floor_at_zero.from = TimePoint::Zero();
  Tracer zero(floor_at_zero);
  Tracer unfloored;
  RecordAroundHundredMicros(zero, /*early=*/true);
  RecordAroundHundredMicros(unfloored, /*early=*/true);
  EXPECT_EQ(zero.event_count(), 7u);
  EXPECT_EQ(zero.ToJson(), unfloored.ToJson());
}

TEST(TracerNullSinkTest, FilteredEventsAllocateNothing) {
  Tracer tracer(TracerConfig{0});  // every category masked off
  TraceTrack track{1, 1};
  // Warm-up pass, in case any path initializes lazily.
  tracer.Span(TraceCategory::kCpu, "warm", track, TimePoint::FromMicros(0),
              TimePoint::FromMicros(1));
  // An emitter with no sink attached, and one whose only sink filters everything.
  const Emitter off;
  const Emitter filtered(&tracer, nullptr);
  size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TimePoint t = TimePoint::FromMicros(i);
    tracer.Span(TraceCategory::kCpu, "seg", track, t, t, "len", 1, "tid", 2);
    tracer.Instant(TraceCategory::kMem, "fault", track, t, "vpn", i);
    tracer.Counter(TraceCategory::kSim, "pending", track, t, 3.0);
    for (const Emitter& emit : {off, filtered}) {
      emit.Span(TraceCategory::kCpu, "seg", track, t, t, {"len", 1}, {"tid", 2}, 7);
      emit.Instant(TraceCategory::kNet, "retransmit", track, t, {"seq", i});
      emit.Trace().Instant(TraceCategory::kMem, "fault", track, t, {"vpn", i});
      emit.Ring().Instant(TraceCategory::kMem, "faults", track, t, {"pages", 1});
    }
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_FALSE(off.on());
  EXPECT_EQ(off.Track("cpu", "cpu0").pid, 0);
}

TEST(ObservedRunTest, TraceIsByteIdenticalAcrossReruns) {
  std::string first = ObservedTypingTrace(/*seed=*/7, /*sinks=*/2, kAllTraceCategories);
  std::string second = ObservedTypingTrace(/*seed=*/7, /*sinks=*/2, kAllTraceCategories);
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
}

TEST(ObservedRunTest, TypingTraceCoversAllInstrumentedLayers) {
  std::string json = ObservedTypingTrace(/*seed=*/7, /*sinks=*/2, kAllTraceCategories);
  // The acceptance bar is spans from >= 4 layers; the typing experiment actually
  // exercises every category.
  for (const char* cat : {"\"cat\":\"sim\"", "\"cat\":\"cpu\"", "\"cat\":\"sched\"",
                          "\"cat\":\"mem\"", "\"cat\":\"net\"", "\"cat\":\"proto\"",
                          "\"cat\":\"session\""}) {
    EXPECT_NE(json.find(cat), std::string::npos) << "missing " << cat;
  }
}

TEST(ObservedRunTest, CategoryMaskRestrictsObservedRun) {
  std::string json = ObservedTypingTrace(
      /*seed=*/7, /*sinks=*/2,
      static_cast<uint32_t>(TraceCategory::kNet) |
          static_cast<uint32_t>(TraceCategory::kProto));
  EXPECT_NE(json.find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"proto\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"cpu\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"sim\""), std::string::npos);
}

TEST(TracerTest, FlowEventsSerializeWithIdAndEnclosingBinding) {
  Tracer tracer;
  TraceTrack a = tracer.RegisterTrack("blame", "net");
  TraceTrack b = tracer.RegisterTrack("blame", "cpu");
  const uint64_t id = 1;
  tracer.FlowBegin(TraceCategory::kBlame, "interaction", a, TimePoint::FromMicros(10), id);
  tracer.FlowStep(TraceCategory::kBlame, "interaction", b, TimePoint::FromMicros(20), id);
  tracer.FlowEnd(TraceCategory::kBlame, "interaction", a, TimePoint::FromMicros(30), id);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"ph\":\"s\",\"name\":\"interaction\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\",\"name\":\"interaction\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"name\":\"interaction\""), std::string::npos);
  // All three points carry the flow id; the end binds to the enclosing slice.
  EXPECT_NE(json.find("\"id\":1,\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"blame\""), std::string::npos);
}

TEST(TracerTest, FlowEventsRespectCategoryFilter) {
  Tracer tracer(TracerConfig{static_cast<uint32_t>(TraceCategory::kCpu)});
  TraceTrack t = tracer.RegisterTrack("blame", "net");
  tracer.FlowBegin(TraceCategory::kBlame, "interaction", t, TimePoint::FromMicros(1), 1);
  tracer.FlowEnd(TraceCategory::kBlame, "interaction", t, TimePoint::FromMicros(2), 1);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObservedRunTest, SweepTracesInvariantUnderWorkerCount) {
  auto traced_config = [](int i) {
    return ObservedTypingTrace(SweepSeed(/*base_seed=*/11, i), /*sinks=*/i,
                               kAllTraceCategories);
  };
  std::vector<std::string> serial = ParallelSweep(1).Map(3, traced_config);
  std::vector<std::string> parallel = ParallelSweep(4).Map(3, traced_config);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "config " << i;
  }
}

}  // namespace
}  // namespace tcs
