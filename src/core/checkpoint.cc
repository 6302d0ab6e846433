#include "src/core/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/run_support.h"
#include "src/core/scenario.h"
#include "src/metrics/latency.h"
#include "src/net/traffic_gen.h"
#include "src/session/server.h"
#include "src/sim/periodic.h"
#include "src/util/config_error.h"
#include "src/workload/animation.h"
#include "src/workload/typist.h"

namespace tcs {

namespace {

using namespace run_support;

// Per-user stall instrumentation: the StallDetector keeps Figure-3 aggregates, the
// LatencyRecorder keeps the exact-microsecond per-gap samples that make consolidation
// results byte-comparable. Lives behind a unique_ptr so callbacks hold stable pointers.
struct StallTap {
  explicit StallTap(Duration period) : stalls(period), period_us(period.ToMicros()) {}

  void OnUpdate(TimePoint t) {
    stalls.OnUpdate(t);
    if (have_last) {
      int64_t gap_us = (t - last).ToMicros() - period_us;
      samples.Record(Duration::Micros(std::max<int64_t>(0, gap_us)));
    }
    have_last = true;
    last = t;
  }

  StallDetector stalls;
  LatencyRecorder samples;
  int64_t period_us;
  bool have_last = false;
  TimePoint last;
};

// Client runs stop typing, then run this much longer so in-flight updates land.
constexpr Duration kDrain = Duration::Seconds(1);

// Puts ConsolidationOptions' WAN profile and degradation ladder on the config. Gated so
// the default (no WAN, no degradation) path leaves the config untouched.
void ApplyWan(ServerConfig& cfg, const ConsolidationOptions& o) {
  if (!o.wan.Any() && !o.degrade) {
    return;
  }
  cfg.faults.seed = o.seed ^ 0xFA017u;
  cfg.faults.link.wan = o.wan;
  cfg.degradation.enabled = o.degrade;
  if (o.wan.queue_bytes.count() > 0) {
    // Calibrate the pressure ladder to the bottleneck queue: a backlog pinned at the
    // drop-tail bound (bufferbloat saturation) engages the deepest level, and each
    // quarter of the queue engages one more step.
    cfg.degradation.level_step = Bytes::Of(std::max<int64_t>(
        Bytes::KiB(8).count(), o.wan.queue_bytes.count() / 4));
  }
}

// What-if virtual hardware. Gated on != 1.0 so stock runs keep their exact bytes (no
// float math touches the configs on the default path).
void ApplyVirtualHardware(ServerConfig& cfg, const Scenario& sc) {
  if (sc.cpu_speed != 1.0) {
    cfg.cpu.speed *= sc.cpu_speed;
  }
  if (sc.disk_speedup != 1.0) {
    const double k = sc.disk_speedup;
    auto faster = [k](Duration d) {
      return Duration::Micros(std::llround(static_cast<double>(d.ToMicros()) / k));
    };
    cfg.disk.positioning_mean = faster(cfg.disk.positioning_mean);
    cfg.disk.positioning_stddev = faster(cfg.disk.positioning_stddev);
    cfg.disk.positioning_min = faster(cfg.disk.positioning_min);
    cfg.disk.transfer_rate = BitsPerSecond::Of(
        std::llround(static_cast<double>(cfg.disk.transfer_rate.bps()) * k));
  }
}

void OnPaint(PaintRecord& p, const InteractionRecord& rec, const Scenario& sc) {
  auto leg_ms = [](int64_t from_us, int64_t to_us) {
    return Duration::Micros(to_us - from_us).ToMillisF();
  };
  p.input_ms.Add(leg_ms(rec.sent_us, rec.arrived_us));
  p.server_ms.Add(leg_ms(rec.arrived_us, rec.emitted_us));
  p.display_ms.Add(leg_ms(rec.emitted_us, rec.delivered_us));
  p.client_ms.Add(leg_ms(rec.delivered_us, rec.painted_us));
  const Duration total = Duration::Micros(rec.total_us());
  p.latency.Record(total);
  if (total > sc.threshold) {
    ++p.perceptible;
  }
  if (sc.starve_after) {
    TimePoint sent = TimePoint::FromMicros(rec.sent_us);
    TimePoint painted = TimePoint::FromMicros(rec.painted_us);
    TimePoint from = std::max(sent + *sc.starve_after, p.counted_through);
    if (painted > from) {
      p.starved += painted - from;
    }
    if (painted > p.counted_through) {
      p.counted_through = painted;
    }
    p.pending = false;
  }
}

// The background media session: a light login playing unique-frame video into the
// downlink — the pressure source the degradation ladder sacrifices first.
std::unique_ptr<Animation> StartBackgroundMedia(Simulator& sim, Server& server,
                                                const ConsolidationOptions& options) {
  Session& media = server.Login(/*light_session=*/true);
  server.SetBackground(media, true);
  AnimationConfig ac;
  ac.id = 0x8AC6;
  // ~4.7 Mbps of media: heavier than every WAN profile's downlink, so without
  // degradation the drop-tail queue sits pinned at its bound.
  ac.width = 512;
  ac.height = 384;
  ac.frame_period = Duration::Millis(100);  // 10 fps media
  // Every frame unique over the run so the bitmap cache cannot absorb the stream.
  ac.frame_count = static_cast<int>(options.duration / ac.frame_period) + 64;
  ac.compression_ratio = 0.3;
  auto media_stream = std::make_unique<Animation>(sim, media.protocol(), ac);
  media_stream->set_frame_gate([&server] {
    DegradationController* d = server.degradation();
    if (d == nullptr) {
      return true;
    }
    return !d->BackgroundPaused() && !d->ShouldDropAnimationFrame();
  });
  media_stream->Start(options.start_delay);
  return media_stream;
}

}  // namespace

struct ConsolidationRun::Impl {
  struct UserRuntime {
    Session* session = nullptr;
    std::unique_ptr<StallTap> tap;  // runs without a client
    const LatencyRecorder* latency = nullptr;  // the live p99 source: tap or paint record
    std::unique_ptr<Typist> typist;
    std::unique_ptr<PeriodicTask> burst_task;
  };

  OsProfile profile;
  ConsolidationOptions options;
  Scenario scenario;
  const ObsConfig* obs = nullptr;
  WallClock::time_point t0;
  Simulator sim;
  ServerConfig cfg;
  ScenarioOutcome outcome;
  std::unique_ptr<SloRuntime> slo;
  std::unique_ptr<LatencyAttribution> local_attribution;
  std::unique_ptr<Server> server;
  std::unique_ptr<SamplerScope> sampler;
  std::vector<UserRuntime> runtimes;
  std::unique_ptr<PoissonTrafficGenerator> background_load;
  std::unique_ptr<Animation> background_media;
  bool finished = false;
};

ConsolidationRun::ConsolidationRun(const OsProfile& profile,
                                   const ConsolidationOptions& options,
                                   const ObsConfig* obs)
    : ConsolidationRun(profile, options, Scenario{}, obs) {}

ConsolidationRun::ConsolidationRun(const OsProfile& profile,
                                   const ConsolidationOptions& options_in,
                                   const Scenario& scenario, const ObsConfig* obs)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.profile = profile;
  im.options = Validated(options_in);
  im.scenario = scenario;
  im.obs = obs;
  im.t0 = WallClock::now();
  const ConsolidationOptions& options = im.options;
  const Scenario& sc = im.scenario;
  ServerConfig& cfg = im.cfg;
  cfg.seed = options.seed;
  cfg.cpu.processors = options.processors;
  cfg.ram = options.ram;
  cfg.eviction = options.eviction;
  cfg.faults = sc.faults;
  ApplyWan(cfg, options);
  ApplyVirtualHardware(cfg, sc);
  ApplyObs(cfg, obs);
  im.slo = std::make_unique<SloRuntime>(im.sim, obs);
  im.slo->ApplyTo(cfg);
  if (sc.local_attribution && cfg.attribution == nullptr) {
    AttributionConfig attr_cfg;
    attr_cfg.tracer = obs != nullptr ? obs->tracer : nullptr;
    attr_cfg.recorder = cfg.recorder;
    im.local_attribution = std::make_unique<LatencyAttribution>(attr_cfg);
    cfg.attribution = im.local_attribution.get();
    if (im.slo->active()) {
      im.slo->watchdog()->SetAttribution(cfg.attribution);
    }
  }
  AttachSimHook(im.sim, obs);
  im.server = std::make_unique<Server>(im.sim, im.profile, cfg);
  im.sampler = std::make_unique<SamplerScope>(im.sim, obs);
  Server& server = *im.server;
  Simulator& sim = im.sim;
  server.StartDaemons();
  if (sc.client) {
    server.AttachClient(*sc.client);
    im.outcome.paints.resize(static_cast<size_t>(options.users));
  }

  im.runtimes.reserve(static_cast<size_t>(options.users));
  // Login + instrument first: session setup traffic and text-segment sharing happen in
  // login order, exactly as they would on a morning shift start.
  for (int u = 0; u < options.users; ++u) {
    Impl::UserRuntime rt;
    rt.session = &server.Login();
    Session* s = rt.session;
    std::function<void()> keystroke = [&server, s] { server.Keystroke(*s); };
    if (sc.client) {
      PaintRecord* paint = &im.outcome.paints[static_cast<size_t>(u)];
      paint->counted_through = TimePoint::Zero() + options.start_delay;
      rt.latency = &paint->latency;
      s->set_on_frame_painted(
          [paint, &sc](const InteractionRecord& rec) { OnPaint(*paint, rec, sc); });
      if (sc.starve_after) {
        keystroke = [&server, &sim, s, paint] {
          if (!paint->pending) {
            paint->pending = true;
            paint->pending_since = sim.Now();
          }
          server.Keystroke(*s);
        };
      }
    } else {
      rt.tap = std::make_unique<StallTap>(options.keystroke_period);
      StallTap* tap = rt.tap.get();
      s->set_on_display_update([tap](TimePoint t) { tap->OnUpdate(t); });
      rt.latency = &tap->samples;
    }
    rt.typist =
        std::make_unique<Typist>(sim, std::move(keystroke), options.keystroke_period);
    rt.typist->Start(options.start_delay +
                     Duration::Micros(options.stagger.ToMicros() * u));
    if (options.burst_cpu > Duration::Zero()) {
      Thread* bt = server.cpu().CreateThread("app-burst", ThreadClass::kBatch,
                                             im.profile.sink_priority);
      Duration burst = options.burst_cpu;
      rt.burst_task = std::make_unique<PeriodicTask>(
          sim, options.burst_period,
          [&server, bt, burst] { server.cpu().PostWork(*bt, burst); });
      rt.burst_task->Start(Duration::Millis((199 * u) % 5000));  // staggered phases
    }
    im.runtimes.push_back(std::move(rt));
  }
  server.StartSinks(options.sinks);
  if (sc.background_mbps > 0.0) {
    im.background_load = std::make_unique<PoissonTrafficGenerator>(
        sim, Rng(options.seed ^ 0xB06), server.link(),
        BitsPerSecond::MbpsF(sc.background_mbps), Bytes::Of(1500));
    im.background_load->Start();
  }
  if (sc.background_session) {
    im.background_media = StartBackgroundMedia(sim, server, options);
  }

  if (im.slo->active()) {
    SloWatchdog& watchdog = *im.slo->watchdog();
    // Live p99 is over samples seen so far (a user who hasn't produced two updates yet
    // contributes nothing live).
    std::vector<Impl::UserRuntime>* runtimes = &im.runtimes;
    watchdog.SetWorstP99Source([runtimes] {
      double worst = 0.0;
      for (const Impl::UserRuntime& rt : *runtimes) {
        worst = std::max(worst, rt.latency->PercentileMs(0.99));
      }
      return worst;
    });
    if (!sc.client) {
      // Total starvation is a whole-run objective and only scored by FinishRun, so
      // warm-up can't trip it.
      watchdog.SetStarvationSource([runtimes] {
        int starved = 0;
        for (const Impl::UserRuntime& rt : *runtimes) {
          if (rt.tap->stalls.updates() < 2) {
            ++starved;
          }
        }
        return static_cast<double>(starved) / static_cast<double>(runtimes->size());
      });
    } else if (sc.starve_after) {
      // Users whose oldest unanswered keystroke is older than the horizon right now.
      std::vector<PaintRecord>* paints = &im.outcome.paints;
      watchdog.SetStarvationSource([paints, &sim, after = *sc.starve_after] {
        int starved = 0;
        for (const PaintRecord& p : *paints) {
          if (p.pending && sim.Now() - p.pending_since > after) {
            ++starved;
          }
        }
        return static_cast<double>(starved) / static_cast<double>(paints->size());
      });
    }
    watchdog.SetLinkBacklogSource([&server, &sim] {
      return server.link().BacklogBytesAt(sim.Now()).count();
    });
    im.slo->Start();
  }
}

ConsolidationRun::~ConsolidationRun() = default;

void ConsolidationRun::RunUntil(TimePoint t) { impl_->sim.RunUntil(t); }

void ConsolidationRun::RunToEnd() { RunUntil(end_time()); }

TimePoint ConsolidationRun::end_time() const {
  return TimePoint::Zero() + impl_->options.start_delay + impl_->options.duration;
}

Simulator& ConsolidationRun::sim() { return impl_->sim; }
Server& ConsolidationRun::server() { return *impl_->server; }

const ScenarioOutcome& ConsolidationRun::outcome() const { return impl_->outcome; }

ConsolidationResult ConsolidationRun::Finish() {
  Impl& im = *impl_;
  if (im.finished) {
    throw ConfigError("ConsolidationRun", "Finish() called twice");
  }
  im.finished = true;
  const ConsolidationOptions& options = im.options;
  const Scenario& sc = im.scenario;
  Server& server = *im.server;
  Duration total = options.start_delay + options.duration;
  for (Impl::UserRuntime& rt : im.runtimes) {
    rt.typist->Stop();
    if (rt.burst_task != nullptr) {
      rt.burst_task->Stop();
    }
  }
  ScenarioOutcome& out = im.outcome;
  if (sc.client) {
    if (im.background_load != nullptr) {
      im.background_load->Stop();
    }
    if (im.background_media != nullptr) {
      im.background_media->Stop();
    }
    im.sim.RunFor(kDrain);  // retransmissions and in-flight updates land
    out.faults = server.CollectFaultStats(total + kDrain);
    if (im.background_media != nullptr) {
      out.background_frames_drawn = im.background_media->frames_drawn();
    }
    double starved_sum = 0.0;
    if (sc.starve_after) {
      // Close each user's final paint gap at the post-drain horizon: a still-pending
      // echo is starved from pending_since + starve_after (or wherever accounting
      // already reached) to the end of the run.
      TimePoint horizon = im.sim.Now();
      Duration active = horizon - (TimePoint::Zero() + options.start_delay);
      for (PaintRecord& p : out.paints) {
        if (p.pending) {
          TimePoint from = std::max(p.pending_since + *sc.starve_after, p.counted_through);
          if (horizon > from) {
            p.starved += horizon - from;
          }
        }
        p.starved_fraction =
            active > Duration::Zero() ? std::min(1.0, p.starved / active) : 0.0;
        starved_sum += p.starved_fraction;
      }
    }
    // The link's own availability (outage-driven; 1.0 for pure WAN pathology) scaled
    // by the fraction of user time frames actually flowed.
    out.availability = out.faults.availability *
                       (1.0 - starved_sum / static_cast<double>(options.users));
  }

  ConsolidationResult result;
  result.os_name = im.profile.name;
  result.protocol = ProtocolName(im.profile.protocol_kind);
  result.users = options.users;
  result.cpu_utilization = server.cpu().busy_time() / total;
  result.link_utilization = server.link().UtilizationOver(total);
  result.resident_pages = server.pager().frames_used();
  result.total_frames = server.pager().total_frames();
  result.shared_segments = server.pager().shared_segments();
  result.shared_attaches = server.pager().shared_attaches();
  result.page_faults = server.pager().faults();
  result.coalesced_waits = server.pager().coalesced_waits();

  Bytes link_total = server.link().bytes_carried();
  double stall_sum = 0.0;
  for (Impl::UserRuntime& rt : im.runtimes) {
    if (rt.tap == nullptr) {
      continue;
    }
    UserStallStats us;
    const StallTap& tap = *rt.tap;
    us.updates = tap.stalls.updates();
    us.avg_stall_ms = tap.stalls.AverageStallAllGaps().ToMillisF();
    us.max_stall_ms = tap.stalls.MaxStall().ToMillisF();
    us.jitter_ms = tap.stalls.Jitter().ToMillisF();
    if (us.updates < 2) {
      // Never saw two updates: total starvation. Score the whole run, so no admission
      // policy can mistake a silent screen for perfect latency.
      us.p50_stall_ms = us.p99_stall_ms = options.duration.ToMillisF();
    } else {
      us.p50_stall_ms = tap.samples.PercentileMs(0.50);
      us.p99_stall_ms = tap.samples.PercentileMs(0.99);
    }
    us.wire_bytes = rt.session->flow().wire_bytes();
    us.link_share = rt.session->flow().ShareOf(link_total);
    us.stall_samples_us = tap.samples.samples_us();
    stall_sum += us.avg_stall_ms;
    result.worst_stall_ms = std::max(result.worst_stall_ms, us.max_stall_ms);
    result.worst_p99_stall_ms = std::max(result.worst_p99_stall_ms, us.p99_stall_ms);
    result.per_user.push_back(std::move(us));
  }
  result.avg_stall_ms = stall_sum / static_cast<double>(options.users);
  if (im.cfg.attribution != nullptr) {
    result.blame = im.cfg.attribution->Collect();
  }
  im.slo->Finish(result.slo, out.availability);
  FinishRun(result.run, im.sim, im.t0);
  return result;
}

}  // namespace tcs
