#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_set>

namespace tcs {

const char* TraceCategoryName(TraceCategory cat) {
  switch (cat) {
    case TraceCategory::kSim:
      return "sim";
    case TraceCategory::kCpu:
      return "cpu";
    case TraceCategory::kSched:
      return "sched";
    case TraceCategory::kMem:
      return "mem";
    case TraceCategory::kNet:
      return "net";
    case TraceCategory::kProto:
      return "proto";
    case TraceCategory::kSession:
      return "session";
    case TraceCategory::kFault:
      return "fault";
    case TraceCategory::kBlame:
      return "blame";
  }
  return "?";
}

Tracer::Tracer(TracerConfig config) : config_(config) {}

TraceTrack Tracer::RegisterTrack(const std::string& process, const std::string& track) {
  int32_t pid = 0;
  for (size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i] == process) {
      pid = static_cast<int32_t>(i + 1);
      break;
    }
  }
  if (pid == 0) {
    processes_.push_back(process);
    pid = static_cast<int32_t>(processes_.size());
  }
  int32_t tid = 1;
  for (const Track& t : tracks_) {
    if (t.pid == pid) {
      ++tid;
    }
  }
  tracks_.push_back(Track{pid, tid, track});
  return TraceTrack{pid, tid};
}

const char* InternName(const std::string& s) {
  // Never destroyed, so a name stays valid through static destruction too; set nodes
  // never move, so each c_str() stays put as the table grows.
  static std::mutex* mu = new std::mutex;
  static std::unordered_set<std::string>* names = new std::unordered_set<std::string>;
  std::lock_guard<std::mutex> lock(*mu);
  return names->insert(s).first->c_str();
}

void Tracer::Span(TraceCategory cat, const char* name, TraceTrack track, TimePoint start,
                  TimePoint end, const char* key1, int64_t val1, const char* key2,
                  int64_t val2) {
  Push(Event{'X', cat, name, track, start.ToMicros(), (end - start).ToMicros(), key1,
             val1, key2, val2, 0.0});
}

void Tracer::Instant(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                     const char* key1, int64_t val1, const char* key2, int64_t val2) {
  Push(Event{'i', cat, name, track, t.ToMicros(), 0, key1, val1, key2, val2, 0.0});
}

void Tracer::Counter(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                     double value) {
  Push(Event{'C', cat, name, track, t.ToMicros(), 0, nullptr, 0, nullptr, 0, value, 0});
}

void Tracer::FlowBegin(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                       uint64_t id) {
  Push(Event{'s', cat, name, track, t.ToMicros(), 0, nullptr, 0, nullptr, 0, 0.0, id});
}

void Tracer::FlowStep(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                      uint64_t id) {
  Push(Event{'t', cat, name, track, t.ToMicros(), 0, nullptr, 0, nullptr, 0, 0.0, id});
}

void Tracer::FlowEnd(TraceCategory cat, const char* name, TraceTrack track, TimePoint t,
                     uint64_t id) {
  Push(Event{'f', cat, name, track, t.ToMicros(), 0, nullptr, 0, nullptr, 0, 0.0, id});
}

namespace {

// Appends `s` to `out` escaped for a JSON string (quotes, backslashes and control
// characters).
void AppendJsonEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void AppendDouble(std::string& out, double v) {
  // Integral values print without a fraction so counters of counts stay tidy; the %.9g
  // fallback is deterministic for a given bit pattern.
  char buf[40];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

}  // namespace

void Tracer::WriteJson(std::ostream& out) const {
  std::string line;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata first: process and thread names in registration order.
  for (size_t i = 0; i < processes_.size(); ++i) {
    line.clear();
    if (!first) {
      line += ",";
    }
    first = false;
    line += "\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    line += std::to_string(i + 1);
    line += ",\"tid\":0,\"args\":{\"name\":\"";
    AppendJsonEscaped(line, processes_[i].c_str());
    line += "\"}}";
    out << line;
  }
  for (const Track& t : tracks_) {
    line.clear();
    line += ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    line += std::to_string(t.pid);
    line += ",\"tid\":";
    line += std::to_string(t.tid);
    line += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(line, t.name.c_str());
    line += "\"}}";
    out << line;
  }
  for (const Event& e : events_) {
    line.clear();
    if (!first) {
      line += ",";
    }
    first = false;
    line += "\n{\"ph\":\"";
    line.push_back(e.ph);
    line += "\",\"name\":\"";
    AppendJsonEscaped(line, e.name);
    line += "\",\"cat\":\"";
    line += TraceCategoryName(e.cat);
    line += "\",\"pid\":";
    line += std::to_string(e.track.pid);
    line += ",\"tid\":";
    line += std::to_string(e.track.tid);
    line += ",\"ts\":";
    line += std::to_string(e.ts_us);
    if (e.ph == 'X') {
      line += ",\"dur\":";
      line += std::to_string(e.dur_us);
    }
    if (e.ph == 'i') {
      line += ",\"s\":\"t\"";
    }
    if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
      line += ",\"id\":";
      line += std::to_string(e.flow_id);
      if (e.ph == 'f') {
        // Bind the arrow head to the enclosing slice rather than the next slice start.
        line += ",\"bp\":\"e\"";
      }
    }
    if (e.ph == 'C') {
      line += ",\"args\":{\"value\":";
      AppendDouble(line, e.counter_value);
      line += "}";
    } else if (e.key1 != nullptr) {
      line += ",\"args\":{\"";
      AppendJsonEscaped(line, e.key1);
      line += "\":";
      line += std::to_string(e.val1);
      if (e.key2 != nullptr) {
        line += ",\"";
        AppendJsonEscaped(line, e.key2);
        line += "\":";
        line += std::to_string(e.val2);
      }
      line += "}";
    }
    line += "}";
    out << line;
  }
  out << "\n]}\n";
}

std::string Tracer::ToJson() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

}  // namespace tcs
