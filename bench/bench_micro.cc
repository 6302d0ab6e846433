// Micro-benchmarks of the framework's hot primitives (google-benchmark): event queue
// throughput, scheduler decision cost, LZ codec speed, bitmap cache operations, pager
// touch cost, the full end-to-end cost of simulating one second of a loaded server, one
// §5.2 paging trial, and one §6.1.2 LBX replay.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/core/admission.h"
#include "src/cpu/cpu.h"
#include "src/cpu/nt_scheduler.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"
#include "src/proto/bitmap_cache.h"
#include "src/session/server.h"
#include "src/sim/simulator.h"
#include "src/util/lz.h"
#include "src/workload/sink.h"
#include "src/workload/typist.h"

namespace tcs {
namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.Schedule(TimePoint::FromMicros((i * 7919) % 10000), [] {});
    }
    TimePoint when;
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.Pop(&when));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Cancellation-heavy churn: schedule a burst, cancel half of it out from under the queue,
// then drain. Timer re-arming (Periodic, StallDetector, protocol flush timers) makes
// Cancel a hot operation, not an edge case.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    std::vector<EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(q.Schedule(TimePoint::FromMicros((i * 7919) % 10000), [] {}));
    }
    for (int i = 0; i < 1000; i += 2) {
      q.Cancel(ids[static_cast<size_t>(i)]);
    }
    TimePoint when;
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.Pop(&when));
    }
  }
  // 1000 schedules + 500 cancels + 500 pops per iteration.
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// One million events flowing through a queue that holds ~10k outstanding at any moment —
// the shape of a long experiment run, where the working set stays bounded while the
// event count is effectively unbounded.
void BM_EventQueueMillionEvents(benchmark::State& state) {
  constexpr int kOutstanding = 10000;
  constexpr int kTotal = 1000000;
  for (auto _ : state) {
    EventQueue q;
    uint64_t t = 0;
    for (int i = 0; i < kOutstanding; ++i) {
      q.Schedule(TimePoint::FromMicros(static_cast<int64_t>((t += 13) % 100000)), [] {});
    }
    TimePoint when;
    for (int i = kOutstanding; i < kTotal; ++i) {
      benchmark::DoNotOptimize(q.Pop(&when));
      q.Schedule(when + Duration::Micros(static_cast<int64_t>((t += 13) % 1000)), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.Pop(&when));
    }
  }
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK(BM_EventQueueMillionEvents);

void BM_NtSchedulerDecision(benchmark::State& state) {
  NtScheduler sched;
  std::vector<std::unique_ptr<Thread>> threads;
  for (int i = 0; i < 32; ++i) {
    threads.push_back(std::make_unique<Thread>(static_cast<uint64_t>(i + 1), "t",
                                               ThreadClass::kBatch, i % 16));
  }
  for (auto& t : threads) {
    sched.OnReady(*t, WakeReason::kOther);
  }
  for (auto _ : state) {
    Thread* t = sched.PickNext();
    benchmark::DoNotOptimize(t);
    sched.OnQuantumExpired(*t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NtSchedulerDecision);

void BM_LzCompress(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  rng.FillBytes(data.data(), data.size(), 0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::Compress(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LzRoundTrip(benchmark::State& state) {
  Rng rng(2);
  std::vector<uint8_t> data(4096);
  rng.FillBytes(data.data(), data.size(), 0.85);
  for (auto _ : state) {
    auto compressed = LzCodec::Compress(data);
    benchmark::DoNotOptimize(LzCodec::Decompress(compressed));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LzRoundTrip);

void BM_BitmapCacheLookupInsert(benchmark::State& state) {
  BitmapCache cache;
  uint64_t hash = 0;
  for (auto _ : state) {
    if (!cache.Lookup(hash % 128)) {
      cache.Insert(hash % 128, Bytes::Of(12000));
    }
    ++hash;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapCacheLookupInsert);

void BM_SimulateLoadedServerSecond(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Server server(sim, OsProfile::Tse());
    server.StartDaemons();
    Session& session = server.Login();
    server.StartSinks(static_cast<int>(state.range(0)));
    Typist typist(sim, [&] { server.Keystroke(session); });
    typist.Start();
    sim.RunUntil(TimePoint::Zero() + Duration::Seconds(1));
    benchmark::DoNotOptimize(server.tap().total_messages());
  }
}
BENCHMARK(BM_SimulateLoadedServerSecond)->Arg(0)->Arg(10)->Arg(50);

// Observability overhead on the same loaded-server second. Arg meaning:
//   0 — no tracer attached (the shipping default: one null-pointer branch per site)
//   1 — tracer attached with every category masked off (branch + filtered Push)
//   2 — tracer attached, all categories captured
// The 0-vs-1 gap prices the null-sink promise; 0-vs-2 prices full capture.
void BM_SimulateTracedServerSecond(benchmark::State& state) {
  int mode = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Tracer tracer(TracerConfig{mode == 2 ? kAllTraceCategories : 0u});
    ServerConfig cfg;
    if (mode != 0) {
      cfg.tracer = &tracer;
    }
    Server server(sim, OsProfile::Tse(), cfg);
    server.StartDaemons();
    Session& session = server.Login();
    server.StartSinks(10);
    Typist typist(sim, [&] { server.Keystroke(session); });
    typist.Start();
    sim.RunUntil(TimePoint::Zero() + Duration::Seconds(1));
    benchmark::DoNotOptimize(server.tap().total_messages());
    benchmark::DoNotOptimize(tracer.event_count());
  }
}
BENCHMARK(BM_SimulateTracedServerSecond)->Arg(0)->Arg(1)->Arg(2);

// Latency-attribution overhead on the loaded-server second. Arg meaning:
//   0 — no engine attached (the shipping default: one null-pointer branch per keystroke)
//   1 — engine attached, no tracer (mint + record + aggregate, zero per-event allocs)
// The 0-vs-1 gap prices the tentpole's "<5% enabled, free disabled" contract.
void BM_AttributionOverhead(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  for (auto _ : state) {
    Simulator sim;
    LatencyAttribution attribution;
    ServerConfig cfg;
    if (enabled) {
      cfg.attribution = &attribution;
    }
    Server server(sim, OsProfile::Tse(), cfg);
    server.StartDaemons();
    Session& session = server.Login();
    server.StartSinks(10);
    Typist typist(sim, [&] { server.Keystroke(session); });
    typist.Start();
    sim.RunUntil(TimePoint::Zero() + Duration::Seconds(1));
    benchmark::DoNotOptimize(server.tap().total_messages());
    benchmark::DoNotOptimize(attribution.committed());
  }
}
BENCHMARK(BM_AttributionOverhead)->Arg(0)->Arg(1);

// End-to-end cost of simulating a consolidated server: N concurrent typists, each with
// its own protocol pipeline multiplexed over the shared link, with the latency-attribution
// engine engaged (the capacity-probe configuration). The tracked metric is wall time per
// simulated second — the multiplier on every sweep, chaos run, and capacity search.
// `wall_s_per_sim_s` x 1e9 is the ns-per-simulated-second figure BENCH_BASELINE records.
void BM_SimulateConsolidatedUsers(benchmark::State& state) {
  int users = static_cast<int>(state.range(0));
  ConsolidationOptions opts;
  opts.users = users;
  opts.duration = Duration::Seconds(users >= 256 ? 2 : 5);
  opts.ram = Bytes::MiB(4096);  // hold the logins resident: measure model code, not thrash
  // Same 104 ms login-ramp span at every N, so per-user event mixes stay comparable.
  opts.stagger = Duration::Micros(104000 / users);
  for (auto _ : state) {
    LatencyAttribution attribution;
    ObsConfig obs;
    obs.attribution = &attribution;
    ConsolidationResult result = RunConsolidation(OsProfile::Tse(), opts, &obs);
    benchmark::DoNotOptimize(result.worst_p99_stall_ms);
    benchmark::DoNotOptimize(result.blame.total_us);
  }
  double sim_seconds = (opts.start_delay + opts.duration).ToSecondsF();
  state.counters["wall_s_per_sim_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * sim_seconds,
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulateConsolidatedUsers)->Arg(8)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Flight-recorder overhead on the 64-user consolidation configuration (the workload
// BM_SimulateConsolidatedUsers/64 measures). Arg meaning:
//   0 — no recorder attached (the shipping default: one null-pointer branch per site)
//   1 — recorder attached: every component appends compact records into the ring
// The 0-vs-1 gap prices the tentpole's "<3% always-on" contract (BENCH_BASELINE gates
// the ratio via the two wall_s_per_sim_s counters).
void BM_FlightRecorderOverhead(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  ConsolidationOptions opts;
  opts.users = 64;
  opts.duration = Duration::Seconds(5);
  opts.ram = Bytes::MiB(4096);
  opts.stagger = Duration::Micros(104000 / 64);
  for (auto _ : state) {
    FlightRecorder recorder;
    AttributionConfig attr_cfg;
    attr_cfg.recorder = enabled ? &recorder : nullptr;
    LatencyAttribution attribution(attr_cfg);
    ObsConfig obs;
    obs.attribution = &attribution;
    if (enabled) {
      obs.recorder = &recorder;
    }
    ConsolidationResult result = RunConsolidation(OsProfile::Tse(), opts, &obs);
    benchmark::DoNotOptimize(result.worst_p99_stall_ms);
    benchmark::DoNotOptimize(recorder.records_seen());
  }
  double sim_seconds = (opts.start_delay + opts.duration).ToSecondsF();
  state.counters["wall_s_per_sim_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * sim_seconds,
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FlightRecorderOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One §5.2 paging trial: a full-demand memory hog streams for 30+ s of virtual time,
// then one keystroke is timed (RunPagingLatency(profile, true, 1, 1), the trial behind
// the paging table). Arg 0 is Linux, 1 is TSE. `wall_ms` is host time per trial and
// `events` the kernel events it dispatched; the hog's resident hits between faults
// cost no events of their own.
void BM_PagingTrial(benchmark::State& state) {
  OsProfile profile = state.range(0) == 0 ? OsProfile::LinuxX() : OsProfile::Tse();
  double wall_ms = 0.0;
  double events = 0.0;
  for (auto _ : state) {
    PagingLatencyResult result = RunPagingLatency(profile, true, 1, 1);
    benchmark::DoNotOptimize(result.avg_ms);
    wall_ms += result.run.wall_ms;
    events += static_cast<double>(result.run.events_executed);
  }
  state.counters["wall_ms"] = benchmark::Counter(wall_ms, benchmark::Counter::kAvgIterations);
  state.counters["events"] = benchmark::Counter(events, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PagingTrial)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One §6.1.2 application replay over LBX (600 steps per script), most of whose host time
// is LzCodec sizing each message against its stream class's rolling dictionary.
// `wall_ms` is host time per replay.
void BM_LbxReplay(benchmark::State& state) {
  double wall_ms = 0.0;
  for (auto _ : state) {
    ProtocolTrafficResult result = RunAppWorkloadTraffic(ProtocolKind::kLbx, 1);
    benchmark::DoNotOptimize(result.total_bytes);
    wall_ms += result.run.wall_ms;
  }
  state.counters["wall_ms"] = benchmark::Counter(wall_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LbxReplay)->Unit(benchmark::kMillisecond);

// One capacity bisection up to 8 users, every probe a full consolidation run from a
// cold start. Args = {measured-window ms, wan}: a LAN with a 1 s staggered login, or a
// satellite WAN with bursty daemons and a 10 s warm-up full of retransmit and timer
// events.
CapacityOptions BenchCapacity(int64_t duration_ms, bool wan) {
  CapacityOptions o;
  o.max_users = 8;
  o.behavior.duration = Duration::Millis(duration_ms);
  o.behavior.seed = 17;
  if (wan) {
    o.behavior.start_delay = Duration::Seconds(10);
    o.behavior.burst_cpu = Duration::Millis(200);
    o.behavior.burst_period = Duration::Seconds(2);
    o.behavior.wan = WanProfileByName("satellite");
    o.behavior.degrade = true;
  }
  return o;
}

void BM_CapacitySearchCold(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunServerCapacity(
        OsProfile::Tse(), BenchCapacity(state.range(0), state.range(1) != 0)));
  }
}
BENCHMARK(BM_CapacitySearchCold)
    ->Unit(benchmark::kMillisecond)
    ->Args({2000, 0})
    ->Args({500, 0})
    ->Args({500, 1});

}  // namespace
}  // namespace tcs

BENCHMARK_MAIN();
