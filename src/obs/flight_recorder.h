// Always-on flight recorder: a bounded ring of compact per-component records.
//
// The Tracer answers "show me everything" at the cost of unbounded growth and JSON
// rendering; sweeps therefore run trace-off and a stall found by a 512-point chaos grid
// used to be unexplainable without a full re-run. The FlightRecorder is the other point
// in the design space: every component continuously appends fixed-size POD records
// (timestamp, duration, name literal, category, flow id, two integer args) into a
// bounded ring of 2^16 records (about 4 MiB, several virtual seconds of fully-loaded
// consolidation history) backed by one contiguous arena block allocated at construction.
// Appending is a mask and a handful of stores — no JSON, no per-record allocation, no
// branches beyond the null-pointer gate at each call site — so it is cheap enough to
// leave on for every run (gated by BM_FlightRecorderOverhead at <3% on the 64-user
// consolidation bench).
//
// When an SloWatchdog detects a violation it calls Freeze(now): the records of the last
// 500 ms of virtual time are copied out of the ring (first freeze wins, so the bundle
// shows the *first* violation's history, not the run's tail). WriteWindowJson() replays
// the frozen window into a Tracer — one process ("flight"), one track per
// TraceCategory, span/instant/counter events plus flow arrows grouped by the records'
// interaction ids — and writes it with Tracer::WriteJson, so trace validation and
// viewers see one dialect.
//
// Determinism contract: records carry only virtual-time stamps, name literals, and
// integer args; the ring's contents and the rendered window are byte-identical across
// reruns and ParallelSweep worker counts for a given seed.

#ifndef TCS_SRC_OBS_FLIGHT_RECORDER_H_
#define TCS_SRC_OBS_FLIGHT_RECORDER_H_

#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

#include "src/obs/arena.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace tcs {

enum class FlightKind : int32_t { kSpan = 0, kInstant, kCounter };

// One recorded event. `name` must outlive the recorder (string literals, interned
// names); identity is virtual time + integers only, never pointers or wall clock.
// Padded to exactly one cache line: at the natural 56-byte size most appends straddle
// two lines, and the ring is written far more often than it is read.
struct alignas(64) FlightRecord {
  int64_t ts_us = 0;
  int64_t dur_us = 0;      // spans only; 0 otherwise
  const char* name = nullptr;
  int32_t category = 0;    // bit index of the record's TraceCategory
  int32_t kind = 0;        // FlightKind
  uint64_t flow_id = 0;    // interaction id; 0 = not part of a flow
  int64_t arg1 = 0;
  int64_t arg2 = 0;
};

class FlightRecorder {
 public:
  FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Span(TraceCategory c, const char* name, TimePoint start, TimePoint end,
            uint64_t flow_id = 0, int64_t arg1 = 0, int64_t arg2 = 0) {
    Append(start.ToMicros(), (end - start).ToMicros(), name, c, FlightKind::kSpan,
           flow_id, arg1, arg2);
  }

  void Instant(TraceCategory c, const char* name, TimePoint t, uint64_t flow_id = 0,
               int64_t arg1 = 0, int64_t arg2 = 0) {
    Append(t.ToMicros(), 0, name, c, FlightKind::kInstant, flow_id, arg1, arg2);
  }

  void Counter(TraceCategory c, const char* name, TimePoint t, int64_t value) {
    Append(t.ToMicros(), 0, name, c, FlightKind::kCounter, 0, value, 0);
  }

  // Records ever appended (monotonic; the ring holds the last min(seen, 2^16)).
  uint64_t records_seen() const { return head_; }
  // How much history Freeze() keeps, in virtual time.
  Duration window() const { return kWindow; }

  // Copies the ring records with ts >= now - window(), oldest append first, into the
  // frozen window. The first freeze wins: later calls are no-ops so the bundle keeps
  // the *first* violation's history.
  void Freeze(TimePoint now);
  bool frozen() const { return frozen_; }
  TimePoint frozen_at() const { return TimePoint::FromMicros(frozen_at_us_); }
  const std::vector<FlightRecord>& frozen_window() const { return window_; }

  // Writes the frozen window as Chrome trace-event JSON through a Tracer (metadata only
  // when Freeze was never called or kept nothing). Deterministic byte-for-byte.
  void WriteWindowJson(std::ostream& out) const;

 private:
  // A power of two, so the append path masks instead of dividing.
  static constexpr size_t kCapacity = size_t{1} << 16;
  static constexpr Duration kWindow = Duration::Millis(500);

  void Append(int64_t ts_us, int64_t dur_us, const char* name, TraceCategory c,
              FlightKind kind, uint64_t flow_id, int64_t arg1, int64_t arg2) {
    // The capacity is a power of two and the ring is one contiguous block, so the wrap
    // is a mask and the store a single indexed write — this runs on every CPU
    // segment, page-in, and link frame of every run.
    FlightRecord& r = ring_[static_cast<size_t>(head_) & (kCapacity - 1)];
    r.ts_us = ts_us;
    r.dur_us = dur_us;
    r.name = name;
    r.category = std::countr_zero(static_cast<uint32_t>(c));
    r.kind = static_cast<int32_t>(kind);
    r.flow_id = flow_id;
    r.arg1 = arg1;
    r.arg2 = arg2;
    ++head_;
  }

  BumpArena arena_;
  FlightRecord* ring_ = nullptr;  // one contiguous kCapacity-record block in the arena
  uint64_t head_ = 0;             // total records ever appended
  bool frozen_ = false;
  int64_t frozen_at_us_ = 0;
  std::vector<FlightRecord> window_;  // filled by Freeze()
};

}  // namespace tcs

#endif  // TCS_SRC_OBS_FLIGHT_RECORDER_H_
