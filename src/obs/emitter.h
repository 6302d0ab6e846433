// One instrumentation call per event: the write side the simulator's layers share.
//
// A run has up to two sinks: the Tracer, which keeps every event as Chrome trace JSON,
// and the FlightRecorder, the bounded always-on ring an SLO violation freezes. An Emitter
// is a small value holding both pointers (either may be null). Each instrumented
// component holds one, set by one attach call, and writes each event once:
// Span/Instant pass the category, name, args and flow id to every attached sink, so the
// two sinks cannot disagree about an event they both keep. A call that should reach one
// sink only names it: Trace() and Ring() are the same emitter with the other sink
// detached (per-page faults stay out of the ring, batched fault counts out of the trace).
//
// The ring keeps no tracks and no arg names: it stores the two arg values and the flow
// id, and renders them as arg1/arg2. The tracer has no flow slot on a span or instant;
// flows in a trace are drawn by the attribution engine.
//
// With no sink attached an event is a null test per sink the call can reach, and no
// allocation. Determinism: an Emitter only forwards; what each sink keeps is its own
// contract (see trace.h and flight_recorder.h).

#ifndef TCS_SRC_OBS_EMITTER_H_
#define TCS_SRC_OBS_EMITTER_H_

#include <cstdint>
#include <string>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace tcs {

// A named integer event argument; an unset one (null key) is left out of the trace and
// stored as 0 in the ring.
struct EventArg {
  const char* key = nullptr;
  int64_t value = 0;
};

class Emitter {
 public:
  Emitter() = default;
  Emitter(Tracer* tracer, FlightRecorder* recorder)
      : tracer_(tracer), recorder_(recorder) {}

  // True when any sink is attached.
  bool on() const { return tracer_ != nullptr || recorder_ != nullptr; }

  // This emitter with only the tracer, or only the ring, attached.
  Emitter Trace() const { return Emitter(tracer_, nullptr); }
  Emitter Ring() const { return Emitter(nullptr, recorder_); }

  // Registers a track on the tracer (see Tracer::RegisterTrack); without one, a default
  // track that no event will be stamped on.
  TraceTrack Track(const std::string& process, const std::string& track) const {
    return tracer_ != nullptr ? tracer_->RegisterTrack(process, track) : TraceTrack{};
  }

  // `name` must outlive every sink: a string literal or InternName()d.
  void Span(TraceCategory cat, const char* name, TraceTrack track, TimePoint start,
            TimePoint end, EventArg a1 = {}, EventArg a2 = {},
            uint64_t flow_id = 0) const {
    if (tracer_ != nullptr) {
      tracer_->Span(cat, name, track, start, end, a1.key, a1.value, a2.key, a2.value);
    }
    if (recorder_ != nullptr) {
      recorder_->Span(cat, name, start, end, flow_id, a1.value, a2.value);
    }
  }

  void Instant(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
               EventArg a1 = {}, EventArg a2 = {}, uint64_t flow_id = 0) const {
    if (tracer_ != nullptr) {
      tracer_->Instant(cat, name, track, t, a1.key, a1.value, a2.key, a2.value);
    }
    if (recorder_ != nullptr) {
      recorder_->Instant(cat, name, t, flow_id, a1.value, a2.value);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace tcs

#endif  // TCS_SRC_OBS_EMITTER_H_
