#include "src/obs/flight_recorder.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/sim/time.h"

namespace tcs {
namespace {

TimePoint Us(int64_t us) { return TimePoint::FromMicros(us); }

std::string WindowJson(const FlightRecorder& recorder) {
  std::ostringstream out;
  recorder.WriteWindowJson(out);
  return out.str();
}

TEST(FlightRecorderTest, RecordsSeenIsMonotonicPastCapacity) {
  FlightRecorder recorder;
  constexpr int kRecords = 150'000;
  constexpr int kCapacity = 65'536;
  for (int i = 0; i < kRecords; ++i) {
    recorder.Instant(TraceCategory::kSim, "tick", Us(i));
  }
  EXPECT_EQ(recorder.records_seen(), static_cast<uint64_t>(kRecords));
  recorder.Freeze(Us(kRecords));  // the 500 ms window reaches back past every record
  // The ring only holds the last 65,536 records; the oldest 84,464 were overwritten.
  ASSERT_EQ(recorder.frozen_window().size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(recorder.frozen_window().front().ts_us, kRecords - kCapacity);
  EXPECT_EQ(recorder.frozen_window().back().ts_us, kRecords - 1);
}

TEST(FlightRecorderTest, FreezeKeepsOnlyTheConfiguredWindow) {
  FlightRecorder recorder;  // keeps the last 500 ms
  EXPECT_EQ(recorder.window(), Duration::Millis(500));
  recorder.Instant(TraceCategory::kNet, "old", Us(100));
  recorder.Instant(TraceCategory::kNet, "edge", Us(500'000));  // exactly at the horizon
  recorder.Instant(TraceCategory::kNet, "new", Us(750'000));
  recorder.Freeze(Us(1'000'000));
  ASSERT_EQ(recorder.frozen_window().size(), 2u);
  EXPECT_STREQ(recorder.frozen_window()[0].name, "edge");
  EXPECT_STREQ(recorder.frozen_window()[1].name, "new");
  EXPECT_EQ(recorder.frozen_at().ToMicros(), 1'000'000);
}

TEST(FlightRecorderTest, FirstFreezeWins) {
  FlightRecorder recorder;
  recorder.Instant(TraceCategory::kFault, "first", Us(10));
  recorder.Freeze(Us(20));
  ASSERT_TRUE(recorder.frozen());
  ASSERT_EQ(recorder.frozen_window().size(), 1u);
  // Later records and later freezes must not disturb the first violation's window.
  recorder.Instant(TraceCategory::kFault, "second", Us(30));
  recorder.Freeze(Us(40));
  EXPECT_EQ(recorder.frozen_at().ToMicros(), 20);
  ASSERT_EQ(recorder.frozen_window().size(), 1u);
  EXPECT_STREQ(recorder.frozen_window()[0].name, "first");
}

TEST(FlightRecorderTest, SpanInstantCounterFieldsSurviveTheRing) {
  FlightRecorder recorder;
  recorder.Span(TraceCategory::kCpu, "seg", Us(100), Us(250), 7, 42, 43);
  recorder.Instant(TraceCategory::kMem, "fault", Us(300), 0, 5);
  recorder.Counter(TraceCategory::kSim, "pending_events", Us(400), 12);
  recorder.Freeze(Us(500));
  ASSERT_EQ(recorder.frozen_window().size(), 3u);
  const FlightRecord& span = recorder.frozen_window()[0];
  EXPECT_EQ(span.kind, static_cast<int32_t>(FlightKind::kSpan));
  EXPECT_EQ(span.ts_us, 100);
  EXPECT_EQ(span.dur_us, 150);
  EXPECT_EQ(span.flow_id, 7u);
  EXPECT_EQ(span.arg1, 42);
  EXPECT_EQ(span.arg2, 43);
  const FlightRecord& instant = recorder.frozen_window()[1];
  EXPECT_EQ(instant.kind, static_cast<int32_t>(FlightKind::kInstant));
  EXPECT_EQ(instant.dur_us, 0);
  EXPECT_EQ(instant.arg1, 5);
  const FlightRecord& counter = recorder.frozen_window()[2];
  EXPECT_EQ(counter.kind, static_cast<int32_t>(FlightKind::kCounter));
  EXPECT_EQ(counter.arg1, 12);
}

TEST(FlightRecorderTest, WindowJsonWithoutFreezeIsMetadataOnly) {
  FlightRecorder recorder;
  recorder.Instant(TraceCategory::kSim, "tick", Us(1));
  std::string json = WindowJson(recorder);
  // Process + nine component tracks, but no event records until Freeze selects them.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"blame\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(FlightRecorderTest, WindowJsonIsByteIdenticalAcrossIdenticalRuns) {
  auto drive = [](FlightRecorder& recorder) {
    for (int i = 0; i < 50; ++i) {
      recorder.Span(TraceCategory::kSession, "keystroke-batch", Us(i * 100),
                    Us(i * 100 + 40), static_cast<uint64_t>(i % 5 + 1), i, i * 2);
      recorder.Instant(TraceCategory::kMem, "fault", Us(i * 100 + 10));
      recorder.Counter(TraceCategory::kNet, "backlog", Us(i * 100 + 20), i * 7);
    }
    recorder.Freeze(Us(5000));
  };
  FlightRecorder a;
  FlightRecorder b;
  drive(a);
  drive(b);
  std::string ja = WindowJson(a);
  EXPECT_EQ(ja, WindowJson(b));
  // Flow arrows only appear for ids seen more than once, with begin/step/end phases.
  EXPECT_NE(ja.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(ja.find("\"ph\":\"f\",\"name\":\"interaction\""), std::string::npos);
  EXPECT_NE(ja.find("\"bp\":\"e\""), std::string::npos);
}

TEST(FlightRecorderTest, SingleOccurrenceFlowIdEmitsNoArrow) {
  FlightRecorder recorder;
  recorder.Span(TraceCategory::kBlame, "interaction", Us(0), Us(10), 99);
  recorder.Freeze(Us(100));
  std::string json = WindowJson(recorder);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
}

}  // namespace
}  // namespace tcs
