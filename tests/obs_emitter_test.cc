// Every event that both sinks keep reaches them as one event: the Tracer's JSON and the
// FlightRecorder's ring hold the same name, category and integer args for each of the
// ten sites that write to both. Each case drives one component with both sinks attached
// and compares what each sink kept of that component's dual sites, in emission order.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/cpu/nt_scheduler.h"
#include "src/fault/fault_injector.h"
#include "src/mem/disk.h"
#include "src/mem/pager.h"
#include "src/net/link.h"
#include "src/net/reliable.h"
#include "src/obs/emitter.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/session/degradation.h"
#include "src/session/server.h"

namespace tcs {
namespace {

// One kept event, as both sinks can state it: the ring has no key names, so args are
// compared by position (a missing arg reads 0, as the ring stores it).
struct Kept {
  std::string name;
  std::string cat;
  int64_t arg1 = 0;
  int64_t arg2 = 0;
  bool operator==(const Kept&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Kept& k) {
  return out << k.cat << "/" << k.name << "(" << k.arg1 << ", " << k.arg2 << ")";
}

// The quoted string after `"key":` on one line of tracer JSON ("" when absent).
std::string Field(const std::string& line, const char* key) {
  std::string tag = std::string("\"") + key + "\":\"";
  size_t at = line.find(tag);
  if (at == std::string::npos) {
    return "";
  }
  at += tag.size();
  return line.substr(at, line.find('"', at) - at);
}

// The spans and instants the tracer kept whose name is in `names`, in emission order.
std::vector<Kept> FromTracer(const Tracer& tracer, const std::set<std::string>& names) {
  std::vector<Kept> kept;
  std::istringstream lines(tracer.ToJson());
  std::string line;
  while (std::getline(lines, line)) {
    std::string ph = Field(line, "ph");
    if ((ph != "X" && ph != "i") || names.count(Field(line, "name")) == 0) {
      continue;
    }
    Kept k{Field(line, "name"), Field(line, "cat")};
    size_t at = line.find("\"args\":{");
    if (at != std::string::npos) {
      std::string args = line.substr(at, line.find('}', at) - at);
      int64_t* slots[] = {&k.arg1, &k.arg2};
      size_t colon = args.find(':');  // the one after "args"
      for (int64_t* slot : slots) {
        colon = args.find(':', colon + 1);
        if (colon == std::string::npos) {
          break;
        }
        *slot = std::stoll(args.substr(colon + 1));
      }
    }
    kept.push_back(k);
  }
  return kept;
}

// The ring records whose name is in `names`, in append order. Freezing at time zero
// keeps the whole run: the window reaches back from the freeze, and every record is
// stamped at or after it.
std::vector<Kept> FromRing(FlightRecorder& recorder, const std::set<std::string>& names) {
  recorder.Freeze(TimePoint::Zero());
  std::vector<Kept> kept;
  for (const FlightRecord& r : recorder.frozen_window()) {
    if (names.count(r.name) != 0) {
      TraceCategory cat = static_cast<TraceCategory>(1u << r.category);
      kept.push_back({r.name, TraceCategoryName(cat), r.arg1, r.arg2});
    }
  }
  return kept;
}

void ExpectSinksAgree(const Tracer& tracer, FlightRecorder& recorder,
                      const std::set<std::string>& names) {
  std::vector<Kept> traced = FromTracer(tracer, names);
  std::vector<Kept> ringed = FromRing(recorder, names);
  for (const std::string& name : names) {
    EXPECT_TRUE(std::any_of(traced.begin(), traced.end(),
                            [&name](const Kept& k) { return k.name == name; }))
        << "the run never reached " << name;
  }
  EXPECT_EQ(traced, ringed);
}

// A cpu segment is named after its thread, with thread id and priority; a preemption
// names the preempted thread. One thread exists before the sinks attach, one after.
TEST(EmitterTest, CpuSegmentsAndPreemptionsReachBothSinksAlike) {
  Simulator sim;
  Tracer tracer;
  FlightRecorder recorder;
  Cpu cpu(sim, std::make_unique<NtScheduler>());
  Thread* sink = cpu.CreateThread("sink", ThreadClass::kBatch, kNtBackgroundPriority);
  cpu.Attach(Emitter(&tracer, &recorder));
  Thread* gui = cpu.CreateThread("gui", ThreadClass::kGui, kNtForegroundPriority);
  cpu.PostWork(*sink, Duration::Millis(50));
  sim.Schedule(Duration::Millis(7), [&] {
    cpu.PostWork(*gui, Duration::Millis(2), nullptr, WakeReason::kInputEvent);
  });
  sim.Run();
  ExpectSinksAgree(tracer, recorder, {"sink", "gui", "preempt"});
}

TEST(EmitterTest, PageInReachesBothSinksAlike) {
  Simulator sim;
  Tracer tracer;
  FlightRecorder recorder;
  Disk disk(sim, Rng(1));
  PagerConfig cfg;
  cfg.total_frames = 16;
  Pager pager(sim, disk, cfg);
  pager.Attach(Emitter(&tracer, &recorder));
  AddressSpace* as = pager.CreateAddressSpace(false);
  pager.Prefault(*as, 0, 4);
  pager.MarkSwappedOut(*as, 0, 4);
  pager.AccessRange(*as, 0, 4, false, nullptr);
  sim.Run();
  ExpectSinksAgree(tracer, recorder, {"page-in"});
}

// A lossy WAN link with a small bufferbloat queue: delivered, lost and dropped frames.
TEST(EmitterTest, LinkFramesReachBothSinksAlike) {
  Simulator sim;
  Tracer tracer;
  FlightRecorder recorder;
  Link link(sim);
  LinkFaultPlan plan;
  plan.loss_rate = 0.3;
  plan.wan.down_rate = BitsPerSecond::Mbps(1);
  plan.wan.queue_bytes = Bytes::KiB(2);
  LinkFaultInjector injector(plan, 3);
  link.SetFaultInjector(&injector);
  link.Attach(Emitter(&tracer, &recorder));
  for (int i = 0; i < 20; ++i) {
    link.Send(Bytes::Of(1000));
  }
  sim.RunFor(Duration::Seconds(5));
  ExpectSinksAgree(tracer, recorder, {"frame", "frame-lost", "frame-dropped"});
}

// A lossy link past the 4,096-frame send window (as in ReliableWindowTest.
// FullWindowShedsAtTheDoor): retransmissions, and frames shed at the door.
TEST(EmitterTest, RetransmitAndShedReachBothSinksAlike) {
  Simulator sim;
  Tracer tracer;
  FlightRecorder recorder;
  Link link(sim);
  LinkFaultPlan plan;
  plan.loss_rate = 0.3;
  LinkFaultInjector injector(plan, 3);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);
  channel.Attach(Emitter(&tracer, &recorder));
  for (int i = 0; i < 4106; ++i) {
    channel.Send(Bytes::Of(200 + i % 10));
  }
  sim.RunFor(Duration::Seconds(5));
  ExpectSinksAgree(tracer, recorder, {"retransmit", "frame-shed"});
}

// Pressure past two level steps, then none: one upshift and the hysteretic way down.
TEST(EmitterTest, DegradationTransitionsReachBothSinksAlike) {
  Simulator sim;
  Tracer tracer;
  FlightRecorder recorder;
  DegradationConfig cfg;
  cfg.enabled = true;
  int64_t pressure = 0;
  DegradationController ladder(sim, cfg, [&pressure] { return pressure; });
  ladder.Attach(Emitter(&tracer, &recorder));
  ladder.Start();  // first poll at 2 s
  sim.Schedule(Duration::Millis(2150), [&] { pressure = Bytes::KiB(100).count(); });
  sim.Schedule(Duration::Millis(2450), [&] { pressure = 0; });
  sim.RunFor(Duration::Seconds(5));
  ExpectSinksAgree(tracer, recorder, {"degrade", "recover"});
}

// Keystrokes into the second of two sessions: the spans carry the session's id.
TEST(EmitterTest, KeystrokeSpansReachBothSinksAlike) {
  Simulator sim;
  Tracer tracer;
  FlightRecorder recorder;
  ServerConfig cfg;
  cfg.tracer = &tracer;
  cfg.recorder = &recorder;
  Server server(sim, OsProfile::Tse(), cfg);
  server.Login();
  Session& typist = server.Login();
  sim.RunFor(Duration::Seconds(1));
  server.Keystroke(typist);
  server.Keystroke(typist);
  sim.RunFor(Duration::Seconds(1));
  ExpectSinksAgree(tracer, recorder, {"input-net", "keystroke-batch"});
}

}  // namespace
}  // namespace tcs
