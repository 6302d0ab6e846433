#include "src/obs/flight_recorder.h"

#include <unordered_map>

namespace tcs {

FlightRecorder::FlightRecorder() {
  // Back the whole ring with a single contiguous arena block (the arena sizes its chunk
  // to the request, so this is exactly one allocation).
  ring_ = arena_.AllocateArray<FlightRecord>(kCapacity);
}

void FlightRecorder::Freeze(TimePoint now) {
  if (frozen_) {
    return;  // first violation wins; its history is what the bundle explains
  }
  frozen_ = true;
  frozen_at_us_ = now.ToMicros();
  int64_t horizon = frozen_at_us_ - kWindow.ToMicros();
  uint64_t live = head_ < kCapacity ? head_ : kCapacity;
  window_.reserve(static_cast<size_t>(live));
  for (uint64_t i = head_ - live; i < head_; ++i) {
    const FlightRecord& r = ring_[static_cast<size_t>(i) & (kCapacity - 1)];
    if (r.ts_us >= horizon) {
      window_.push_back(r);
    }
  }
}

namespace {

// A record stores its category as the TraceCategory's bit index.
TraceCategory CategoryOf(int32_t bit) { return static_cast<TraceCategory>(1u << bit); }

}  // namespace

void FlightRecorder::WriteWindowJson(std::ostream& out) const {
  // Replay the window into a Tracer and let it write the JSON: one "flight" process
  // with a track per category in bit order (so tids are fixed regardless of which
  // categories recorded anything), records in append order, and flow arrows for ids
  // seen more than once. Counting each id's occurrences first tells the replay which
  // record is an id's first (FlowBegin) and last (FlowEnd); lookups only, so the output
  // order stays the window's.
  Tracer tracer;
  constexpr int kCategoryCount = std::bit_width(kAllTraceCategories);
  TraceTrack tracks[kCategoryCount];
  for (int c = 0; c < kCategoryCount; ++c) {
    tracks[c] = tracer.RegisterTrack("flight", TraceCategoryName(CategoryOf(c)));
  }
  std::unordered_map<uint64_t, uint64_t> flow_total;
  for (const FlightRecord& r : window_) {
    if (r.flow_id != 0) {
      ++flow_total[r.flow_id];
    }
  }
  std::unordered_map<uint64_t, uint64_t> flow_seen;
  for (const FlightRecord& r : window_) {
    TraceCategory cat = CategoryOf(r.category);
    TraceTrack track = tracks[r.category];
    TimePoint ts = TimePoint::FromMicros(r.ts_us);
    switch (static_cast<FlightKind>(r.kind)) {
      case FlightKind::kSpan:
        tracer.Span(cat, r.name, track, ts, ts + Duration::Micros(r.dur_us), "arg1",
                    r.arg1, "arg2", r.arg2);
        break;
      case FlightKind::kInstant:
        tracer.Instant(cat, r.name, track, ts, "arg1", r.arg1, "arg2", r.arg2);
        break;
      case FlightKind::kCounter:
        tracer.Counter(cat, r.name, track, ts, static_cast<double>(r.arg1));
        break;
    }
    uint64_t total = r.flow_id != 0 ? flow_total[r.flow_id] : 0;
    if (total < 2) {
      continue;
    }
    uint64_t seen = flow_seen[r.flow_id]++;
    if (seen == 0) {
      tracer.FlowBegin(cat, "interaction", track, ts, r.flow_id);
    } else if (seen + 1 == total) {
      tracer.FlowEnd(cat, "interaction", track, ts, r.flow_id);
    } else {
      tracer.FlowStep(cat, "interaction", track, ts, r.flow_id);
    }
  }
  tracer.WriteJson(out);
}

}  // namespace tcs
