// Deterministic virtual-time tracing (the observability layer's event side).
//
// A Tracer records typed span/instant/counter events keyed to *simulated* time and emits
// Chrome trace-event JSON loadable in Perfetto or chrome://tracing. Every component gets
// its own track (a pid/tid pair): one per scheduler CPU, per session, per link, per
// protocol channel, assigned in registration order so output is byte-identical across
// runs and across ParallelSweep worker counts.
//
// Hot layers reach the tracer through an Emitter (emitter.h) whose tracer pointer defaults
// to nullptr; a detached tracer therefore costs one branch per would-be event and zero
// allocations. Category and time filtering happen inside the tracer, so call sites never
// test more than the pointer.
//
// Determinism contract: event payloads may contain only virtual-time stamps and model
// state — never wall-clock readings, addresses, or iteration order of unordered
// containers.

#ifndef TCS_SRC_OBS_TRACE_H_
#define TCS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace tcs {

// One bit per layer; a Tracer is constructed with the set it should keep.
enum class TraceCategory : uint32_t {
  kSim = 1u << 0,      // event-kernel dispatches
  kCpu = 1u << 1,      // execution segments, preemptions
  kSched = 1u << 2,    // policy decisions: boosts, band changes
  kMem = 1u << 3,      // faults, evictions, page-in spans, disk I/O
  kNet = 1u << 4,      // frame transmissions, queueing
  kProto = 1u << 5,    // protocol messages, cache hits/misses
  kSession = 1u << 6,  // keystroke batches, update emissions
  kFault = 1u << 7,    // injected outages, disconnects, disk stalls
  kBlame = 1u << 8,    // per-interaction latency attribution spans + flows
};

inline constexpr uint32_t kAllTraceCategories = 0x1ff;

const char* TraceCategoryName(TraceCategory cat);

// Copies `s` into storage that lives until the process exits and returns a pointer to
// it; repeated calls with the same string return the same pointer. Use for event names
// that must outlive their component and every sink that holds them (thread names on cpu
// segments, for example). Safe to call from any thread.
const char* InternName(const std::string& s);

// A Chrome-trace track: `pid` groups related tracks into one named process section,
// `tid` is the row within it.
struct TraceTrack {
  int32_t pid = 0;
  int32_t tid = 0;
};

struct TracerConfig {
  uint32_t categories = kAllTraceCategories;
  // Events stamped before `from` are dropped (a span is stamped by its start); tracks
  // still register. A rewind sets it to keep only the lead-up to an SLO violation.
  TimePoint from = TimePoint::Zero();
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool Enabled(TraceCategory cat) const {
    return (config_.categories & static_cast<uint32_t>(cat)) != 0;
  }

  // Creates (or finds) the process section `process` and appends a track named `track`
  // to it. Tracks render in registration order.
  TraceTrack RegisterTrack(const std::string& process, const std::string& track);

  // A slice [start, end] on `track` (Chrome "complete" event) with up to two integer
  // args; an arg whose key is null is left out. `name` and the keys must outlive the
  // tracer (string literals or InternName()d).
  void Span(TraceCategory cat, const char* name, TraceTrack track, TimePoint start,
            TimePoint end, const char* key1 = nullptr, int64_t val1 = 0,
            const char* key2 = nullptr, int64_t val2 = 0);

  // A zero-width marker at `t`, with args as for Span.
  void Instant(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
               const char* key1 = nullptr, int64_t val1 = 0, const char* key2 = nullptr,
               int64_t val2 = 0);

  // A sampled value; Perfetto renders successive samples as a counter track.
  void Counter(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
               double value);

  // Flow events (ph "s"/"t"/"f") link spans across tracks: begin a flow inside one slice,
  // step it through intermediate slices, and end it (binding to the enclosing slice,
  // `bp:"e"`). All three points of one flow must share `id` and `name`. Determinism
  // contract: ids are caller-supplied sequence numbers minted in registration/injection
  // order — never addresses.
  void FlowBegin(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                 uint64_t id);
  void FlowStep(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                uint64_t id);
  void FlowEnd(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
               uint64_t id);

  size_t event_count() const { return events_.size(); }
  size_t track_count() const { return tracks_.size(); }

  // Chrome trace-event JSON: {"traceEvents":[...]}. Deterministic byte-for-byte given the
  // same recorded events.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;

 private:
  struct Event {
    char ph;  // 'X' span, 'i' instant, 'C' counter, 's'/'t'/'f' flow
    TraceCategory cat;
    const char* name;
    TraceTrack track;
    int64_t ts_us;
    int64_t dur_us;       // spans only
    const char* key1 = nullptr;
    int64_t val1 = 0;
    const char* key2 = nullptr;
    int64_t val2 = 0;
    double counter_value = 0.0;  // counters only
    uint64_t flow_id = 0;        // flow events only
  };
  struct Track {
    int32_t pid;
    int32_t tid;
    std::string name;
  };

  // The category and time filters live here so call sites only ever test the tracer
  // pointer.
  void Push(const Event& e) {
    if (Enabled(e.cat) && e.ts_us >= config_.from.ToMicros()) {
      events_.push_back(e);
    }
  }

  TracerConfig config_;
  std::vector<Event> events_;
  std::vector<std::string> processes_;  // index = pid - 1
  std::vector<Track> tracks_;
};

}  // namespace tcs

#endif  // TCS_SRC_OBS_TRACE_H_
