#include "src/obs/flight_recorder.h"

#include <sstream>
#include <unordered_map>

namespace tcs {

FlightRecorder::FlightRecorder(FlightRecorderConfig config) : config_(config) {
  // Round the capacity up to a power of two so Append can mask instead of divide,
  // then back the whole ring with a single contiguous arena block (the arena sizes
  // its chunk to the request, so this is exactly one allocation).
  size_t cap = kMinCapacity;
  while (cap < config_.capacity) {
    cap <<= 1;
  }
  capacity_ = cap;
  ring_ = arena_.AllocateArray<FlightRecord>(capacity_);
}

void FlightRecorder::Freeze(TimePoint now) {
  if (frozen_) {
    return;  // first violation wins; its history is what the bundle explains
  }
  frozen_ = true;
  frozen_at_us_ = now.ToMicros();
  int64_t horizon = frozen_at_us_ - config_.window.ToMicros();
  uint64_t live = head_ < capacity_ ? head_ : capacity_;
  window_.reserve(static_cast<size_t>(live));
  for (uint64_t i = head_ - live; i < head_; ++i) {
    const FlightRecord& r = ring_[static_cast<size_t>(i) & (capacity_ - 1)];
    if (r.ts_us >= horizon) {
      window_.push_back(r);
    }
  }
}

namespace {

// Track ids and category names follow TraceCategory's bit order, one track per bit.
constexpr int kCategoryCount = std::bit_width(kAllTraceCategories);

const char* CategoryName(int32_t bit) {
  return TraceCategoryName(static_cast<TraceCategory>(1u << bit));
}

}  // namespace

void FlightRecorder::WriteWindowJson(std::ostream& out) const {
  std::string line;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Metadata first: the one "flight" process, then a track per category in bit order,
  // so pids/tids are fixed regardless of which categories recorded anything.
  out << "\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"flight\"}}";
  for (int c = 0; c < kCategoryCount; ++c) {
    line.clear();
    line += ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    line += std::to_string(c + 1);
    line += ",\"args\":{\"name\":\"";
    line += CategoryName(c);
    line += "\"}}";
    out << line;
  }
  // Flow arrows need begin/step/end phases: count each id's occurrences first so the
  // emission pass knows which record is an id's first ('s') and last ('f'). Lookups
  // only — output order stays the window's append order, so bytes are deterministic.
  std::unordered_map<uint64_t, uint64_t> flow_total;
  for (const FlightRecord& r : window_) {
    if (r.flow_id != 0) {
      ++flow_total[r.flow_id];
    }
  }
  std::unordered_map<uint64_t, uint64_t> flow_seen;
  for (const FlightRecord& r : window_) {
    line.clear();
    line += ",\n{\"ph\":\"";
    switch (static_cast<FlightKind>(r.kind)) {
      case FlightKind::kSpan:
        line += 'X';
        break;
      case FlightKind::kInstant:
        line += 'i';
        break;
      case FlightKind::kCounter:
        line += 'C';
        break;
    }
    line += "\",\"name\":\"";
    AppendJsonEscaped(line, r.name);
    line += "\",\"cat\":\"";
    line += CategoryName(r.category);
    line += "\",\"pid\":1,\"tid\":";
    line += std::to_string(r.category + 1);
    line += ",\"ts\":";
    line += std::to_string(r.ts_us);
    switch (static_cast<FlightKind>(r.kind)) {
      case FlightKind::kSpan:
        line += ",\"dur\":";
        line += std::to_string(r.dur_us);
        line += ",\"args\":{\"arg1\":";
        line += std::to_string(r.arg1);
        line += ",\"arg2\":";
        line += std::to_string(r.arg2);
        line += "}";
        break;
      case FlightKind::kInstant:
        line += ",\"s\":\"t\",\"args\":{\"arg1\":";
        line += std::to_string(r.arg1);
        line += ",\"arg2\":";
        line += std::to_string(r.arg2);
        line += "}";
        break;
      case FlightKind::kCounter:
        line += ",\"args\":{\"value\":";
        line += std::to_string(r.arg1);
        line += "}";
        break;
    }
    line += "}";
    if (r.flow_id != 0) {
      uint64_t seen = flow_seen[r.flow_id]++;
      uint64_t total = flow_total[r.flow_id];
      char ph = seen == 0 ? 's' : (seen + 1 == total ? 'f' : 't');
      if (total > 1) {
        line += ",\n{\"ph\":\"";
        line.push_back(ph);
        line += "\",\"name\":\"interaction\",\"cat\":\"";
        line += CategoryName(r.category);
        line += "\",\"pid\":1,\"tid\":";
        line += std::to_string(r.category + 1);
        line += ",\"ts\":";
        line += std::to_string(r.ts_us);
        line += ",\"id\":";
        line += std::to_string(r.flow_id);
        if (ph == 'f') {
          line += ",\"bp\":\"e\"";
        }
        line += "}";
      }
    }
    out << line;
  }
  out << "\n]}\n";
}

std::string FlightRecorder::WindowJson() const {
  std::ostringstream out;
  WriteWindowJson(out);
  return out.str();
}

}  // namespace tcs
