#include "src/core/experiments.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>

#include "src/util/percentile_sketch.h"

#include "src/core/admission.h"
#include "src/core/checkpoint.h"
#include "src/core/run_support.h"
#include "src/core/scenario.h"

#include "src/cpu/nt_scheduler.h"
#include "src/metrics/latency.h"
#include "src/net/ping.h"
#include "src/net/traffic_gen.h"
#include "src/proto/protocol_pipeline.h"
#include "src/session/server.h"
#include "src/util/config_error.h"
#include "src/util/stats.h"
#include "src/workload/animation.h"
#include "src/workload/app_script.h"
#include "src/workload/memory_hog.h"
#include "src/workload/webpage.h"

namespace tcs {

namespace {

using namespace run_support;  // WallClock, FinishRun, ApplyObs, SamplerScope, ...

// Wires the ObsConfig's tracer through a protocol-only harness (which keeps no flight
// records) and registers the link backlog gauge (protocol-only experiments have no
// cpu/pager to observe).
void ApplyObs(ProtocolHarness& harness, const ObsConfig* obs) {
  if (obs == nullptr) {
    return;
  }
  const Emitter emit(obs->tracer, nullptr);
  harness.link.Attach(emit);
  harness.protocol().Attach(emit);
  if (obs->metrics != nullptr) {
    Link* l = &harness.link;
    Simulator* s = &harness.sim;
    obs->metrics->AddGauge("link_backlog_bytes", [l, s] {
      return static_cast<double>(l->BacklogBytesAt(s->Now()).count());
    });
    if (const BitmapCache* c = harness.pipeline.cache()) {
      obs->metrics->AddGauge("bitmap_cache_hit_rate", [c] { return c->CumulativeHitRatio(); });
    }
  }
}

AnimationLoadResult CollectLoad(const ProtocolHarness& harness, Duration duration,
                                Duration bucket, size_t warm_buckets,
                                const std::string& name) {
  AnimationLoadResult result;
  result.protocol = name;
  result.bucket = bucket;
  const TimeSeries& series = harness.tap.series(Channel::kDisplay);
  size_t buckets = static_cast<size_t>(duration.ToMicros() / bucket.ToMicros());
  double sustained_sum = 0.0;
  size_t sustained_n = 0;
  for (size_t i = 0; i < buckets; ++i) {
    double bytes = i < series.bucket_count() ? series.Sum(i) : 0.0;
    double mbps = bytes * 8.0 / bucket.ToSecondsF() / 1e6;
    result.load_mbps.push_back(mbps);
    if (i >= warm_buckets) {
      sustained_sum += mbps;
      ++sustained_n;
    }
  }
  result.mean_mbps =
      static_cast<double>(harness.tap.counted_bytes(Channel::kDisplay).count()) * 8.0 /
      duration.ToSecondsF() / 1e6;
  result.sustained_mbps = sustained_n > 0 ? sustained_sum / static_cast<double>(sustained_n)
                                          : result.mean_mbps;
  if (const BitmapCache* cache = harness.pipeline.cache()) {
    result.cache_hits = cache->hits();
    result.cache_misses = cache->misses();
    result.cumulative_hit_ratio = cache->CumulativeHitRatio();
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Processor

IdleProfileResult RunIdleProfile(const OsProfile& profile, Duration duration,
                                 uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  ServerConfig cfg;
  cfg.seed = seed;
  Server server(sim, profile, cfg);
  IdleLoopProfiler profiler(server.cpu());
  server.StartDaemons();
  sim.RunUntil(TimePoint::Zero() + duration);
  profiler.Flush();

  IdleProfileResult result;
  result.os_name = profile.name;
  result.duration = duration;
  size_t buckets = static_cast<size_t>(duration.ToMicros() /
                                       profiler.utilization().bucket_width().ToMicros());
  for (size_t i = 0; i < buckets; ++i) {
    result.utilization.push_back(i < profiler.utilization().bucket_count()
                                     ? profiler.UtilizationAt(i)
                                     : 0.0);
  }
  result.cumulative = profiler.CumulativeLatencyCurve();
  result.total_busy = profiler.TotalBusy();
  FinishRun(result.run, sim, t0);
  return result;
}

TypingUnderLoadResult RunTypingUnderLoad(const OsProfile& profile, int sinks,
                                         Duration duration, uint64_t seed,
                                         int processors, const ObsConfig* obs) {
  // The single-session typing experiment is the users == 1, burst-free corner of the
  // consolidation engine; RunServerCapacity's N=1 probe reproduces it byte for byte.
  ConsolidationOptions copt;
  copt.users = 1;
  copt.duration = duration;
  copt.seed = seed;
  copt.processors = processors;
  copt.sinks = sinks;
  ConsolidationResult consolidated = RunConsolidation(profile, copt, obs);

  TypingUnderLoadResult result;
  result.os_name = consolidated.os_name;
  result.sinks = sinks;
  const UserStallStats& user = consolidated.per_user.front();
  result.avg_stall_ms = user.avg_stall_ms;
  result.max_stall_ms = user.max_stall_ms;
  result.jitter_ms = user.jitter_ms;
  result.updates = user.updates;
  result.stall_samples_us = user.stall_samples_us;
  result.blame = std::move(consolidated.blame);
  result.slo = std::move(consolidated.slo);
  result.run = consolidated.run;
  return result;
}

Duration RunMaximizeScenario(int foreground_stretch, double cpu_speed) {
  Simulator sim;
  NtSchedulerConfig sched_cfg;
  sched_cfg.foreground_stretch = foreground_stretch;
  CpuConfig cpu_cfg;
  cpu_cfg.speed = cpu_speed;
  cpu_cfg.context_switch_cost = Duration::Zero();
  Cpu cpu(sim, std::make_unique<NtScheduler>(sched_cfg), cpu_cfg);
  Thread* daemon =
      cpu.CreateThread("session-manager", ThreadClass::kDaemon, kNtSystemDaemonPriority);
  Thread* editor = cpu.CreateThread("editor", ThreadClass::kGui, kNtForegroundPriority);
  TimePoint done = TimePoint::Infinite();
  cpu.PostWork(*daemon, Duration::Millis(400));
  cpu.PostWork(*editor, Duration::Millis(500), [&] { done = sim.Now(); },
               WakeReason::kInputEvent);
  sim.Run();
  return done - TimePoint::Zero();
}

// ---------------------------------------------------------------------------
// Memory

SessionMemoryResult MeasureSessionMemory(const OsProfile& profile, bool light) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  ServerConfig cfg;
  Server server(sim, profile, cfg);
  size_t frames_before = server.pager().frames_used();
  Session& session = server.Login(light);
  size_t frames_after = server.pager().frames_used();

  SessionMemoryResult result;
  result.os_name = profile.name;
  result.light = light;
  const std::vector<ProcessSpec>& processes =
      light ? profile.light_login_processes : profile.login_processes;
  for (const ProcessSpec& proc : processes) {
    result.processes.push_back(SessionMemoryRow{proc.name, proc.private_memory});
  }
  result.total = session.private_memory();
  result.total_shared = session.shared_memory();
  result.idle_system = profile.idle_system_memory;
  // Exclude the editor working set and the shared text segments (resident once
  // server-wide): the table reports the login processes' private bill only.
  size_t ws = profile.editor_working_set_pages;
  size_t shared_pages = 0;
  for (const ProcessSpec& proc : processes) {
    if (proc.shared_text.count() > 0) {
      shared_pages += std::max<size_t>(1, PagesFor(proc.shared_text));
    }
  }
  result.measured_resident =
      kPageSize * static_cast<int64_t>(frames_after - frames_before - ws - shared_pages);
  FinishRun(result.run, sim, t0);
  return result;
}

PagingLatencyResult RunPagingLatency(const OsProfile& profile, bool full_demand, int runs,
                                     uint64_t seed, EvictionPolicy eviction,
                                     const ObsConfig* obs) {
  RunningStats latency_ms;
  PagingLatencyResult result;
  for (int run = 0; run < runs; ++run) {
    WallClock::time_point t0 = WallClock::now();
    Simulator sim;
    ServerConfig cfg;
    cfg.seed = seed * 1000 + static_cast<uint64_t>(run);
    cfg.eviction = eviction;
    // Observe the first trial only: one server's worth of tracks, not `runs` copies.
    const ObsConfig* run_obs = run == 0 ? obs : nullptr;
    ApplyObs(cfg, run_obs);
    AttachSimHook(sim, run_obs);
    Server server(sim, profile, cfg);
    SamplerScope sampler(sim, run_obs);
    Session& session = server.Login();
    Rng run_rng(cfg.seed ^ 0xFEEDFACE);

    size_t free = server.pager().frames_free();
    size_t ws = profile.editor_working_set_pages;
    size_t login_pages = server.pager().frames_used() - ws;
    MemoryHogConfig hog_cfg;
    if (full_demand) {
      // Demand exceeds free memory by a run-varying margin. Global LRU hands the hog the
      // oldest pages first — the login's processes, then the editor's working set — so
      // the margin controls how much of the keystroke path gets stolen: from a fraction
      // of it up to all of it plus steady-state thrashing (the min/max spread of the
      // §5.2 table).
      double steal =
          profile.ws_touch_min + run_rng.NextDouble() * (1.2 - profile.ws_touch_min);
      hog_cfg.region_pages =
          free + login_pages + static_cast<size_t>(steal * static_cast<double>(ws));
    } else {
      hog_cfg.region_pages = free / 2;
    }
    MemoryHog hog(sim, server.pager(), hog_cfg);
    hog.Start();

    // Let the hog run ~30 s of user "think time", then type one key.
    TimePoint keystroke_at =
        TimePoint::Zero() + Duration::Seconds(30) +
        Duration::Micros(static_cast<int64_t>(run_rng.NextDouble() * 5e6));
    bool responded = false;
    Duration response = Duration::Zero();
    session.set_on_display_update([&](TimePoint t) {
      if (!responded) {
        responded = true;
        response = t - keystroke_at;
        sim.RequestStop();
      }
    });
    sim.At(keystroke_at, [&server, &session] { server.Keystroke(session); });
    sim.RunUntil(keystroke_at + Duration::Seconds(120));
    latency_ms.Add(responded ? response.ToMillisF() : 120000.0);
    FinishRun(result.run, sim, t0);
  }

  result.os_name = profile.name;
  result.full_demand = full_demand;
  result.runs = runs;
  result.min_ms = latency_ms.min();
  result.avg_ms = latency_ms.mean();
  result.max_ms = latency_ms.max();
  if (obs != nullptr && obs->attribution != nullptr) {
    result.blame = obs->attribution->Collect();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Network

void ReplayAppWorkload(ProtocolHarness& harness, uint64_t seed, int steps_per_app) {
  Rng script_rng(seed ^ 0xABCD);
  AppScript word = AppScript::WordProcessor(script_rng.Fork(), steps_per_app);
  AppScript photo = AppScript::PhotoEditor(script_rng.Fork(), steps_per_app);
  AppScript panel = AppScript::ControlPanel(script_rng.Fork(), steps_per_app);

  // The three application sessions run back to back, as in the paper's trial. Bounded
  // RunUntil (not Run) so protocols with autonomous periodic activity (VNC's client pull)
  // terminate.
  for (const AppScript* script : {&word, &photo, &panel}) {
    TimePoint end = harness.sim.Now() + script->TotalDuration();
    script->Replay(harness.sim, harness.protocol());
    harness.sim.RunUntil(end);
  }
  harness.protocol().Flush();
  harness.sim.RunFor(Duration::Seconds(1));
}

ProtocolTrafficResult RunAppWorkloadTraffic(ProtocolKind kind, uint64_t seed,
                                            int steps_per_app, const ObsConfig* obs) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(kind, seed);
  ApplyObs(harness, obs);
  AttachSimHook(harness.sim, obs);
  SamplerScope sampler(harness.sim, obs);
  ReplayAppWorkload(harness, seed, steps_per_app);

  ProtocolTrafficResult result;
  result.protocol = ProtocolName(kind);
  result.input.bytes = harness.tap.counted_bytes(Channel::kInput).count();
  result.input.messages = harness.tap.messages(Channel::kInput);
  result.display.bytes = harness.tap.counted_bytes(Channel::kDisplay).count();
  result.display.messages = harness.tap.messages(Channel::kDisplay);
  result.total_bytes = result.input.bytes + result.display.bytes;
  result.total_messages = result.input.messages + result.display.messages;
  result.avg_message_size = harness.tap.AverageMessageSize();
  result.packets = harness.pipeline.packets_sent();
  result.vip_bytes = result.total_bytes - 20 * result.packets;
  FinishRun(result.run, harness.sim, t0);
  return result;
}

AnimationLoadResult RunWebPageLoad(ProtocolKind kind, bool banner, bool marquee,
                                   Duration duration, uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(kind, seed);
  WebPageConfig page_cfg;
  page_cfg.banner = banner;
  page_cfg.marquee = marquee;
  WebPage page(harness.sim, harness.protocol(), page_cfg);
  page.Open();
  harness.sim.RunUntil(TimePoint::Zero() + duration);
  page.Close();

  std::string name = ProtocolName(kind);
  name += banner && marquee ? " marquee+banner" : (banner ? " banner" : " marquee");
  // Skip the cache-warming first 15 s when judging the sustained level.
  AnimationLoadResult result = CollectLoad(harness, duration, Duration::Seconds(1), 15, name);
  FinishRun(result.run, harness.sim, t0);
  return result;
}

AnimationLoadResult RunGifAnimation(ProtocolKind kind, const GifAnimationOptions& options,
                                    const ObsConfig* obs) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(kind, options.seed, options.bucket,
                          {.cache = {.policy = options.cache_policy}});
  ApplyObs(harness, obs);
  AttachSimHook(harness.sim, obs);
  SamplerScope sampler(harness.sim, obs);
  AnimationConfig anim_cfg;
  anim_cfg.id = 1;
  anim_cfg.frame_count = options.frames;
  anim_cfg.frame_period = options.frame_period;
  anim_cfg.width = options.width;
  anim_cfg.height = options.height;
  anim_cfg.compression_ratio = options.compression_ratio;
  Animation animation(harness.sim, harness.protocol(), anim_cfg);
  animation.Start();
  harness.sim.RunUntil(TimePoint::Zero() + options.duration);
  animation.Stop();

  size_t warm = std::max<size_t>(
      1, static_cast<size_t>((options.frame_period * options.frames * 2).ToMicros() /
                             options.bucket.ToMicros()));
  AnimationLoadResult result =
      CollectLoad(harness, options.duration, options.bucket, warm, ProtocolName(kind));
  FinishRun(result.run, harness.sim, t0);
  return result;
}

CacheOverflowResult RunCacheOverflow(int frames, Duration duration, uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  ProtocolHarness harness(ProtocolKind::kRdp, seed);
  const BitmapCache& cache = *harness.pipeline.cache();

  // Server CPU: the RDP encoder's work (cache hits are cheap; misses re-compress the
  // frame) is executed by an encoder thread on a dedicated CPU model.
  Simulator& sim = harness.sim;
  Cpu cpu(sim, std::make_unique<NtScheduler>());
  Thread* encoder = cpu.CreateThread("rdp-encoder", ThreadClass::kDaemon, 13);
  harness.protocol().set_encode_cost_sink(
      [&cpu, encoder](Duration cost) { cpu.PostWork(*encoder, cost); });
  IdleLoopProfiler profiler(cpu, Duration::Seconds(1));

  // Warm session UI: icons and glyphs whose steady redraw keeps hitting, so the
  // cumulative ratio starts high (the ~70% starting point of Figure 6).
  for (int pass = 0; pass < 4; ++pass) {
    for (uint64_t icon = 0; icon < 20; ++icon) {
      BitmapRef ref = BitmapRef::Make(0x5E55ull << 32 | icon, 24, 24, 0.6);
      harness.protocol().SubmitDraw(DrawCommand::PutImage(ref));
    }
  }
  harness.protocol().Flush();

  // The 66-frame overflow animation: "Dateline NBC" at 5 fps (Figures 6-7 use 24 000-byte
  // compressed frames against the 1.5 MB cache: 65 fit, 66 do not).
  AnimationConfig anim_cfg;
  anim_cfg.id = 7;
  anim_cfg.frame_count = frames;
  anim_cfg.frame_period = Duration::Millis(200);
  anim_cfg.width = 200;
  anim_cfg.height = 150;
  anim_cfg.compression_ratio = 0.8;  // 30 000 raw -> 24 000 compressed
  Animation animation(sim, harness.protocol(), anim_cfg);

  CacheOverflowResult result;
  // Sample the cumulative hit ratio once per second.
  PeriodicTask sampler(sim, Duration::Seconds(1), [&] {
    result.cumulative_hit_ratio.push_back(cache.CumulativeHitRatio());
  });
  sampler.Start(Duration::Millis(999));
  animation.Start();
  sim.RunUntil(TimePoint::Zero() + duration);
  animation.Stop();
  sampler.Stop();
  profiler.Flush();

  size_t buckets = static_cast<size_t>(duration.ToMicros() / 1000000);
  for (size_t i = 0; i < buckets; ++i) {
    result.cpu_utilization.push_back(
        i < profiler.utilization().bucket_count() ? profiler.UtilizationAt(i) : 0.0);
  }
  FinishRun(result.run, sim, t0);
  return result;
}

RttProbeResult RunRttProbe(double offered_mbps, Duration duration, uint64_t seed) {
  WallClock::time_point t0 = WallClock::now();
  Simulator sim;
  // The paper's testbed segment was shared half-duplex Ethernet: model CSMA/CD
  // contention, not just FIFO queueing.
  LinkConfig link_cfg;
  link_cfg.csma_cd = true;
  link_cfg.seed = seed ^ 0xE78E12;
  Link link(sim, link_cfg);
  PoissonTrafficGenerator gen(sim, Rng(seed), link, BitsPerSecond::MbpsF(offered_mbps),
                              Bytes::Of(1500));
  Ping ping(sim, link);
  gen.Start();
  ping.Start();
  sim.RunUntil(TimePoint::Zero() + duration);
  gen.Stop();
  ping.Stop();
  sim.RunFor(Duration::Seconds(2));  // drain in-flight echoes

  RttProbeResult result;
  result.offered_mbps = offered_mbps;
  result.mean_rtt_ms = ping.rtt().mean();
  result.rtt_variance = ping.rtt().variance();
  FinishRun(result.run, sim, t0);
  return result;
}

Bytes SessionSetupBytes(ProtocolKind kind) {
  return ProtocolHarness(kind, 1).protocol().session_setup_bytes();
}

SizingPoint RunServerSizing(const OsProfile& profile, int users, Duration duration,
                            uint64_t seed, const ObsConfig* obs) {
  ConsolidationOptions copt;
  copt.users = users;
  copt.duration = duration;
  copt.seed = seed;
  copt.keystroke_period = Duration::Millis(200);
  copt.start_delay = Duration::Zero();
  copt.burst_cpu = Duration::Millis(300);
  ConsolidationResult r = RunConsolidation(profile, copt, obs);

  SizingPoint point;
  point.os_name = r.os_name;
  point.users = users;
  point.cpu_utilization = r.cpu_utilization;
  double total = 0.0;
  for (const UserStallStats& u : r.per_user) {
    // A user who never saw two updates scores the whole run.
    double stall = u.updates < 2 ? duration.ToMillisF() : u.avg_stall_ms;
    total += stall;
    point.worst_stall_ms = std::max(point.worst_stall_ms, stall);
  }
  point.avg_stall_ms = total / static_cast<double>(users);
  point.blame = std::move(r.blame);
  point.run = r.run;
  return point;
}

namespace {

// The single-typist shape the end-to-end and chaos presets share: one user typing at
// 20 Hz from 2 s, past session setup and warm-up.
ConsolidationOptions OneTypist(int sinks, Duration duration, uint64_t seed) {
  ConsolidationOptions copt;
  copt.duration = duration;
  copt.seed = seed;
  copt.start_delay = Duration::Seconds(2);
  copt.sinks = sinks;
  return copt;
}

}  // namespace

EndToEndResult RunEndToEndLatency(const OsProfile& profile, const EndToEndOptions& options,
                                  const ObsConfig* obs) {
  Scenario sc;
  sc.client = options.client;
  sc.faults = options.faults;
  sc.background_mbps = options.background_mbps;
  ConsolidationRun run(profile, OneTypist(options.sinks, options.duration, options.seed),
                       sc, obs);
  run.RunToEnd();
  ConsolidationResult r = run.Finish();
  const PaintRecord& user = run.outcome().paints.front();

  EndToEndResult result;
  result.os_name = profile.name;
  result.client_name = options.client.name;
  result.input_net_ms = user.input_ms.mean();
  result.server_ms = user.server_ms.mean();
  result.display_net_ms = user.display_ms.mean();
  result.client_ms = user.client_ms.mean();
  result.total_ms = user.latency.raw().mean();
  result.updates = user.latency.count();
  result.faults = run.outcome().faults;
  result.blame = std::move(r.blame);
  result.slo = std::move(r.slo);
  result.run = r.run;
  return result;
}

ChaosPoint RunChaosPoint(const OsProfile& profile, const ChaosOptions& options,
                         const ObsConfig* obs) {
  Scenario sc;
  sc.client = ThinClientConfig::DesktopPc();
  sc.faults.seed = options.seed ^ 0xFA017u;
  sc.faults.link.loss_rate = options.loss_rate;
  if (options.flap_every > Duration::Zero() && options.flap_duration > Duration::Zero()) {
    sc.faults.link.flap_every = options.flap_every;
    sc.faults.link.flap_duration = options.flap_duration;
  }
  sc.faults.disk.stall_rate = options.disk_stall_rate;
  sc.faults.session.disconnect_every = options.disconnect_every;
  sc.threshold = options.threshold;
  // Chaos points always attribute: the blame block is how a loss sweep shows retransmit
  // time moving into the network stage.
  sc.local_attribution = true;
  ConsolidationRun run(profile, OneTypist(options.sinks, options.duration, options.seed),
                       sc, obs);
  run.RunToEnd();
  ConsolidationResult r = run.Finish();
  const PaintRecord& user = run.outcome().paints.front();
  const LatencyRecorder& latency = user.latency;

  ChaosPoint point;
  point.os_name = profile.name;
  point.loss_rate = options.loss_rate;
  point.flap_ms = options.flap_duration.ToMillisF();
  point.updates = latency.count();
  if (latency.count() > 0) {
    // Exact-microsecond percentiles, rendered as ms only here at serialization.
    point.p50_ms = latency.PercentileMs(0.50);
    point.p99_ms = latency.PercentileMs(0.99);
    point.mean_ms = static_cast<double>(latency.Mean().ToMicros()) / 1000.0;
    point.perceptible_fraction =
        static_cast<double>(user.perceptible) / static_cast<double>(latency.count());
  }
  point.crosses_threshold = point.p99_ms > options.threshold.ToMillisF();
  point.faults = run.outcome().faults;
  Server& server = run.server();
  point.link_frames_sent = server.link().frames_sent();
  point.link_frames_delivered = server.link().frames_delivered();
  point.link_frames_lost = server.link().frames_lost();
  point.retransmissions = server.reliable() != nullptr
                              ? static_cast<int64_t>(server.reliable()->retransmissions())
                              : 0;
  point.blame = std::move(r.blame);
  point.slo = std::move(r.slo);
  point.run = r.run;
  return point;
}

// ---------------------------------------------------------------------------
// WAN pathology sweep + graceful degradation

WanProfile WanProfileByName(const std::string& name) {
  WanProfile p;
  p.name = name;
  WanLinkPlan& plan = p;
  if (name == "dsl") {
    // Consumer ADSL tail: asymmetric, modest RTT, rare short bursts, and the classic
    // oversized modem buffer — ~780 ms of bufferbloat at line rate when pinned.
    plan = {.extra_delay = Duration::Millis(20), .jitter = Duration::Millis(5),
            .down_rate = BitsPerSecond::Mbps(4), .up_rate = BitsPerSecond::Kbps(512),
            .queue_bytes = Bytes::KiB(384), .ge_p_good_to_bad = 0.002,
            .ge_p_bad_to_good = 0.2, .ge_loss_good = 0.0005, .ge_loss_bad = 0.08};
  } else if (name == "lte") {
    // Cellular: decent rates but jittery, bursty loss at cell-edge, and notoriously deep
    // eNB buffers — over a second of bufferbloat when the downlink saturates.
    plan = {.extra_delay = Duration::Millis(35), .jitter = Duration::Millis(15),
            .down_rate = BitsPerSecond::Mbps(6), .up_rate = BitsPerSecond::Mbps(2),
            .queue_bytes = Bytes::KiB(768), .ge_p_good_to_bad = 0.005,
            .ge_p_bad_to_good = 0.15, .ge_loss_good = 0.001, .ge_loss_bad = 0.15};
  } else if (name == "satellite") {
    // GEO hop: enormous fixed delay, narrow uplink, long queues, weather-fade bursts.
    plan = {.extra_delay = Duration::Millis(280), .jitter = Duration::Millis(30),
            .down_rate = BitsPerSecond::Mbps(3), .up_rate = BitsPerSecond::Kbps(768),
            .queue_bytes = Bytes::KiB(192), .ge_p_good_to_bad = 0.002,
            .ge_p_bad_to_good = 0.25, .ge_loss_good = 0.0005, .ge_loss_bad = 0.05};
  } else if (name == "congested-office") {
    // An oversubscribed branch-office uplink: symmetric but starved for capacity, a
    // shallow router queue that tail-drops readily, and contention-driven loss bursts.
    plan = {.extra_delay = Duration::Millis(5), .jitter = Duration::Millis(10),
            .down_rate = BitsPerSecond::Mbps(2), .up_rate = BitsPerSecond::Mbps(2),
            .queue_bytes = Bytes::KiB(48), .ge_p_good_to_bad = 0.004,
            .ge_p_bad_to_good = 0.3, .ge_loss_good = 0.002, .ge_loss_bad = 0.12};
  } else {
    throw ConfigError("WanProfile", "unknown WAN profile: " + name +
                                        " (expected dsl, lte, satellite, or"
                                        " congested-office)");
  }
  return p;
}

std::vector<std::string> WanProfileNames() {
  return {"dsl", "lte", "satellite", "congested-office"};
}

WanPoint RunWanPoint(const OsProfile& profile, const WanOptions& options,
                     const ObsConfig* obs) {
  ConsolidationOptions copt;
  copt.users = options.users;
  copt.duration = options.duration;
  copt.seed = options.seed;
  copt.keystroke_period = options.think_time;
  copt.start_delay = Duration::Seconds(2);  // past session setup and warm-up
  copt.stagger = Duration::Millis(7);
  // An all-empty profile injects nothing: no injector or reliable channel is
  // constructed, and the run is byte-identical to a LAN run.
  copt.wan = options.profile;
  copt.degrade = options.degrade;
  Scenario sc;
  sc.client = ThinClientConfig::DesktopPc();
  sc.background_session = options.background_session;
  sc.threshold = options.threshold;
  sc.starve_after = options.starve_after;
  // WAN points always attribute: the blame table is how degradation shows its work
  // (coalesce holds land in sched-wait, network pathology in the net stages).
  sc.local_attribution = true;
  sc.cpu_speed = options.cpu_speed;
  sc.disk_speedup = options.disk_speedup;
  ConsolidationRun run(profile, copt, sc, obs);
  run.RunToEnd();
  ConsolidationResult r = run.Finish();
  const ScenarioOutcome& out = run.outcome();

  WanPoint point;
  point.os_name = profile.name;
  point.profile = options.profile.name;
  point.degrade = options.degrade;
  point.users = options.users;
  double mean_us_sum = 0.0;
  int64_t perceptible = 0;
  for (const PaintRecord& user : out.paints) {
    point.worst_starved_fraction =
        std::max(point.worst_starved_fraction, user.starved_fraction);
    point.worst_p99_ms = std::max(point.worst_p99_ms, user.latency.PercentileMs(0.99));
    point.updates += user.latency.count();
    perceptible += user.perceptible;
    // Count-weighted aggregate mean from the exact per-user microsecond accumulators.
    mean_us_sum += static_cast<double>(user.latency.Mean().ToMicros()) *
                   static_cast<double>(user.latency.count());
  }
  if (point.updates > 0) {
    point.mean_ms = mean_us_sum / static_cast<double>(point.updates) / 1000.0;
    point.perceptible_fraction =
        static_cast<double>(perceptible) / static_cast<double>(point.updates);
  }
  point.faults = out.faults;
  point.availability = out.availability;
  const Link& link = run.server().link();
  point.link_frames_sent = link.frames_sent();
  point.link_frames_delivered = link.frames_delivered();
  point.link_frames_lost = link.frames_lost();
  if (DegradationController* d = run.server().degradation()) {
    for (const DegradationTransition& tr : d->transitions()) {
      point.degradation_peak_level = std::max(point.degradation_peak_level, tr.to);
    }
    point.degradation_transitions = static_cast<int64_t>(d->transitions().size());
    point.degraded_seconds = d->DegradedTimeThrough(run.sim().Now()).ToSecondsF();
    point.animation_frames_skipped = d->animation_frames_dropped();
  }
  point.background_frames_drawn = out.background_frames_drawn;
  point.blame = std::move(r.blame);
  point.slo = std::move(r.slo);
  point.run = r.run;
  return point;
}

// ---------------------------------------------------------------------------
// Counterfactual what-if analysis

WhatIfResult RunWhatIf(const OsProfile& profile, const WhatIfOptions& options,
                       const ObsConfig* obs) {
  WhatIfResult result;
  result.os_name = profile.name;
  result.profile = options.wan.profile.name;
  result.component = WhatIfComponentName(options.adjust.component);
  result.speedup = options.adjust.speedup;
  result.rtt_delta_us = options.adjust.rtt_delta_us;

  // Baseline arm: the caller's observability plus a record-retaining attribution engine —
  // the prediction needs every InteractionRecord, and the report's blame table the
  // display-net decomposition sub-stages.
  ObsConfig baseline_obs = obs != nullptr ? *obs : ObsConfig{};
  AttributionConfig attr_cfg;
  attr_cfg.tracer = baseline_obs.tracer;
  attr_cfg.recorder = baseline_obs.recorder;
  attr_cfg.keep_records = true;
  attr_cfg.decompose_network = true;
  LatencyAttribution attribution(attr_cfg);
  baseline_obs.attribution = &attribution;
  result.baseline = RunWanPoint(profile, options.wan, &baseline_obs);

  // Predicted arm: rescale every baseline record's stages under the virtual speedup. The
  // p99 estimator is the attribution engine's nearest-rank, so predicted and achieved
  // percentiles are directly comparable.
  PercentileSketch<int64_t> predicted;
  for (const InteractionRecord& rec : attribution.records()) {
    predicted.Add(PredictAdjustedTotalUs(rec, options.adjust));
  }
  result.critical_path_mismatches =
      attribution.accounting_mismatches() + attribution.net_mismatches();
  result.interactions = static_cast<int64_t>(attribution.records().size());
  result.baseline_p99_us = result.baseline.blame.p99_total_us;
  result.predicted_p99_us = predicted.empty() ? 0 : predicted.NearestRank(0.99);

  // Achieved arm: re-simulate with the counterfactual applied to the hardware model
  // itself, so every second-order effect (queues draining faster, fewer RTO expiries,
  // different batch boundaries) plays out for real.
  WanOptions adjusted = options.wan;
  switch (options.adjust.component) {
    case WhatIfAdjustment::Component::kLink: {
      auto scaled = [&](BitsPerSecond r) {
        // 0 is the "keep the LAN rate" sentinel: a pure-LAN cell's wire is already the
        // link config's own rate and stays untouched.
        return r.bps() > 0
                   ? BitsPerSecond::Of(std::llround(static_cast<double>(r.bps()) *
                                                    options.adjust.speedup))
                   : r;
      };
      adjusted.profile.down_rate = scaled(adjusted.profile.down_rate);
      adjusted.profile.up_rate = scaled(adjusted.profile.up_rate);
      break;
    }
    case WhatIfAdjustment::Component::kCpu:
      adjusted.cpu_speed *= options.adjust.speedup;
      break;
    case WhatIfAdjustment::Component::kDisk:
      adjusted.disk_speedup *= options.adjust.speedup;
      break;
    case WhatIfAdjustment::Component::kRtt: {
      // extra_delay is one-way transit, so cutting it by d/2 cuts the RTT by d.
      const int64_t cut_us = std::min(options.adjust.rtt_delta_us / 2,
                                      adjusted.profile.extra_delay.ToMicros());
      adjusted.profile.extra_delay =
          adjusted.profile.extra_delay - Duration::Micros(cut_us);
      break;
    }
  }
  ObsConfig adjusted_obs = obs != nullptr ? *obs : ObsConfig{};
  AttributionConfig adj_attr_cfg;
  adj_attr_cfg.tracer = adjusted_obs.tracer;
  adj_attr_cfg.recorder = adjusted_obs.recorder;
  adj_attr_cfg.decompose_network = true;
  LatencyAttribution adjusted_attribution(adj_attr_cfg);
  adjusted_obs.attribution = &adjusted_attribution;
  result.adjusted = RunWanPoint(profile, adjusted, &adjusted_obs);

  result.achieved_p99_us = result.adjusted.blame.p99_total_us;
  result.predicted_delta_us = result.baseline_p99_us - result.predicted_p99_us;
  result.achieved_delta_us = result.baseline_p99_us - result.achieved_p99_us;
  result.run.events_executed =
      result.baseline.run.events_executed + result.adjusted.run.events_executed;
  result.run.pending_events =
      result.baseline.run.pending_events + result.adjusted.run.pending_events;
  result.run.wall_ms = result.baseline.run.wall_ms + result.adjusted.run.wall_ms;
  return result;
}

}  // namespace tcs
