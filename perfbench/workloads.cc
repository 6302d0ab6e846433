#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/pinned.h"
#include "src/core/admission.h"
#include "src/core/checkpoint.h"
#include "src/core/experiments.h"
#include "src/core/report.h"
#include "src/net/endpoint.h"
#include "src/net/link.h"
#include "src/obs/attribution.h"
#include "src/obs/flight_recorder.h"
#include "src/proto/lbx_protocol.h"
#include "src/proto/prototap.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/x_protocol.h"
#include "src/session/server.h"
#include "src/workload/app_script.h"
#include "src/workload/memory_hog.h"

namespace perfbench {
namespace {

using tcs::Duration;
using tcs::TimePoint;

// --- Shared helpers --------------------------------------------------------------

bool TimeUp(Clock::time_point start, const RunArgs& args) {
  return MsSince(start) >= args.seconds * 1e3;
}

// The report's digest with its RunStats zeroed: events_executed may legitimately change
// (a batching kernel) and wall_ms always does; every simulated field stays in.
template <typename Result>
std::string ReportDigest(Result r) {
  r.run = tcs::RunStats{};
  return Digest(tcs::ToJson(r));
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Mean |measured - paper| / paper over the pairs, in percent.
double PaperErrPct(const std::vector<std::pair<double, double>>& measured_vs_paper) {
  std::vector<double> errs;
  for (const auto& [measured, paper] : measured_vs_paper) {
    errs.push_back(std::abs(measured - paper) / paper * 100.0);
  }
  return Mean(errs);
}

// Checks the first steps' report digests against the ones pinned for the default seed
// and notes them, so a deliberate model change can re-pin.
class PinCheck {
 public:
  // `round_steps` is how many steps one round of the workload's inputs takes.
  PinCheck(const RunArgs& args, const char* workload, size_t round_steps)
      : workload_(workload), check_(args.seed == kDefaultSeed),
        pinned_(PinnedDigests(workload)), round_steps_(round_steps) {}

  void Add(Outcome& out, const std::string& digest) {
    size_t i = seen_.size();
    if (i >= round_steps_) {
      return;
    }
    seen_.push_back(digest);
    if (check_) {
      if (i >= pinned_.size()) {
        out.Guard(false, std::string(workload_) + " step " + std::to_string(i) +
                             " has no pinned report digest");
        return;
      }
      out.Guard(digest == pinned_[i], std::string(workload_) + " step " + std::to_string(i) +
                                          " report digest " + digest + " != pinned " +
                                          pinned_[i]);
    }
  }

  void Note(Outcome& out) const {
    std::string line = "report digests of the first steps:";
    for (const std::string& d : seen_) {
      line += " " + d;
    }
    out.notes.push_back(line);
  }

 private:
  const char* workload_;
  bool check_;
  std::vector<std::string> pinned_;
  size_t round_steps_;
  std::vector<std::string> seen_;
};

// Per-step means of the traced steps' summed counter deltas, plus the ratios.
void AddCounterMetrics(Outcome& out, const Counters& sum, size_t steps) {
  double n = std::max<double>(1.0, static_cast<double>(steps));
  auto per_step = [&](const char* name, int64_t total) {
    out.metrics[name] = static_cast<double>(total) / n;
  };
  per_step("sim.events", sum.events);
  per_step("mem.hits", sum.hits);
  per_step("mem.faults", sum.faults);
  per_step("mem.evictions", sum.evictions);
  per_step("mem.dirty_writebacks", sum.dirty_writebacks);
  per_step("mem.disk_reads", sum.disk_reads);
  per_step("workload.hog_touches", sum.hog_touches);
  per_step("net.frames_sent", sum.frames_sent);
  per_step("net.retransmissions", sum.retransmissions);
  per_step("net.wan_queue_drops", sum.wan_queue_drops);
  per_step("net.frames_shed", sum.frames_shed);
  per_step("proto.messages", sum.messages);
  per_step("proto.bytes", sum.bytes);
  per_step("proto.packets", sum.packets);
  per_step("obs.interactions", sum.interactions);
  per_step("obs.recorder_records", sum.recorder_records);
  out.metrics["mem.hit_ratio"] = Ratio(sum.hits, sum.hits + sum.faults);
  out.metrics["net.delivered_ratio"] = Ratio(sum.frames_delivered, sum.frames_sent);
  out.metrics["net.retx_ratio"] = Ratio(sum.retransmissions, sum.originals);
}

// Kernel metrics and the tracing overhead. `plain` and `traced` time the same inputs,
// untraced and traced, so events per host second use the untraced time.
void AddKernelMetrics(Outcome& out, const DispatchTimer& timer, const StepLog& plain,
                      const StepLog& traced, int64_t events) {
  out.metrics["sim.events_per_host_s"] =
      plain.host_ms() > 0.0 ? static_cast<double>(events) / (plain.host_ms() / 1e3) : 0.0;
  out.metrics["sim.dispatch_ns_p50"] = timer.PercentileNs(0.50);
  out.metrics["sim.dispatch_ns_p99"] = timer.PercentileNs(0.99);
  out.metrics["sim.pending_max"] = static_cast<double>(timer.pending_max());
  out.metrics["trace.overhead_pct"] =
      traced.SimPerHostS() > 0.0 ? (plain.SimPerHostS() / traced.SimPerHostS() - 1.0) * 100.0
                                 : 0.0;
}

// Relative to the working directory, the checkout's root when run through run.py.
constexpr char kTraceDir[] = ".bench_build/traces";

void WriteSpans(const RunArgs& args, const SpanLog& spans, Outcome& out) {
  std::filesystem::create_directories(kTraceDir);
  std::string path = std::string(kTraceDir) + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".jsonl";
  spans.Write(path);
  out.notes.push_back("spans written to " + path);
}

// Counters every Server-based workload exposes through public accessors.
Counters ServerCounters(tcs::Simulator& sim, tcs::Server& server) {
  Counters c;
  c.events = static_cast<int64_t>(sim.events_executed());
  c.hits = server.pager().hits();
  c.faults = server.pager().faults();
  c.evictions = server.pager().evictions();
  c.dirty_writebacks = server.pager().dirty_writebacks();
  c.disk_reads = server.disk().reads();
  c.frames_sent = server.link().frames_sent();
  c.frames_delivered = server.link().frames_delivered();
  c.frames_lost = server.link().frames_lost();
  c.wan_queue_drops = server.link().wan_queue_drops();
  if (const tcs::ReliableChannel* reliable = server.reliable()) {
    c.originals = reliable->frames_sent();
    c.retransmissions = reliable->retransmissions();
    c.frames_shed = reliable->frames_shed();
  }
  c.messages = server.tap().total_messages();
  c.bytes = server.tap().total_counted_bytes().count();
  return c;
}

// The link never loses track of a frame: sent == delivered + lost.
bool LinkBalanced(const tcs::Link& link) {
  return link.frames_sent() == link.frames_delivered() + link.frames_lost();
}

bool AttributionClean(const tcs::LatencyAttribution& a) {
  return a.accounting_mismatches() == 0 && a.net_mismatches() == 0;
}

// --- paging ----------------------------------------------------------------------

constexpr double kPaperTseAvgMs = 4026.0;    // §5.2, >= 100% demand
constexpr double kPaperLinuxAvgMs = 1170.0;
constexpr uint64_t kPagingStrata = 16;      // trials per OS per cycle of the steal range
// A round is one full cycle of the strata for each OS, so every round has the same mix
// of thrashing and resident trials.
constexpr uint64_t kPagingRound = 2 * kPagingStrata;
constexpr uint64_t kFidelityTrials = kPagingRound;

// RunPagingLatency's trial for `seed` draws from this RNG: first the fraction of the
// editor's working set the hog steals, then the keystroke instant.
tcs::Rng PagingRunRng(uint64_t seed) { return tcs::Rng((seed * 1000) ^ 0xFEEDFACE); }

TimePoint PagingKeystrokeAt(uint64_t seed) {
  tcs::Rng run_rng = PagingRunRng(seed);
  run_rng.NextDouble();
  return TimePoint::Zero() + Duration::Seconds(30) +
         Duration::Micros(static_cast<int64_t>(run_rng.NextDouble() * 5e6));
}

// The seed of paging trial `i`, stratified on the steal draw. Whether the hog's region
// overflows RAM (every touch faults, a few ms of host time) or settles resident (every
// touch hits, ~100 ms) follows from that draw, so a plain random seed would let a run's
// mix of the two, and with it every host-time metric, swing with --seed. Each OS's
// trials instead walk 16 strata of the draw, one per trial (in bit-reversed order),
// taking the first candidate seed that lands in the stratum; a round walks them all.
uint64_t PagingTrialSeed(uint64_t run_seed, uint64_t i) {
  uint64_t j = (i / 2) % kPagingStrata;
  uint64_t stratum = ((j & 1) << 3) | ((j & 2) << 1) | ((j & 4) >> 1) | ((j & 8) >> 3);
  uint64_t trial = InputSeed(run_seed, i);
  for (uint64_t c = 0;; ++c) {
    uint64_t seed = InputSeed(trial, c);
    double u = PagingRunRng(seed).NextDouble();
    if (static_cast<uint64_t>(u * kPagingStrata) == stratum) {
      return seed;
    }
  }
}

// One RunPagingLatency(profile, true, 1, seed) trial rebuilt from public parts in the
// same construction and scheduling order, so the traced run can read the pager, disk
// and hog counters. The differential guard holds it to RunPagingLatency's response.
class PagingTrial {
 public:
  PagingTrial(const tcs::OsProfile& profile, uint64_t seed,
              tcs::LatencyAttribution* attribution) {
    tcs::ServerConfig cfg;
    cfg.seed = seed * 1000;
    cfg.eviction = tcs::EvictionPolicy::kGlobalLru;
    cfg.attribution = attribution;
    server_ = std::make_unique<tcs::Server>(sim_, profile, cfg);
    session_ = &server_->Login();
    tcs::Rng run_rng(cfg.seed ^ 0xFEEDFACE);
    size_t free = server_->pager().frames_free();
    size_t ws = profile.editor_working_set_pages;
    size_t login_pages = server_->pager().frames_used() - ws;
    double steal = profile.ws_touch_min + run_rng.NextDouble() * (1.2 - profile.ws_touch_min);
    tcs::MemoryHogConfig hog_cfg;
    hog_cfg.region_pages =
        free + login_pages + static_cast<size_t>(steal * static_cast<double>(ws));
    hog_ = std::make_unique<tcs::MemoryHog>(sim_, server_->pager(), hog_cfg);
    keystroke_at_ = TimePoint::Zero() + Duration::Seconds(30) +
                    Duration::Micros(static_cast<int64_t>(run_rng.NextDouble() * 5e6));
  }

  // Streams the hog, types one key at keystroke_at(), and runs until the response.
  void Run(DispatchTimer& timer) {
    hog_->Start();
    session_->set_on_display_update([this](TimePoint t) {
      if (!responded_) {
        responded_ = true;
        response_ = t - keystroke_at_;
        sim_.RequestStop();
      }
    });
    tcs::Server* server = server_.get();
    tcs::Session* session = session_;
    sim_.At(keystroke_at_, [server, session] { server->Keystroke(*session); });
    timer.Attach(sim_);
    timer.Arm();
    sim_.RunUntil(keystroke_at_ + Duration::Seconds(120));
  }

  double response_ms() const { return responded_ ? response_.ToMillisF() : 120000.0; }
  TimePoint keystroke_at() const { return keystroke_at_; }
  tcs::Simulator& sim() { return sim_; }
  tcs::Server& server() { return *server_; }

  Counters Read(const tcs::LatencyAttribution& attribution) {
    Counters c = ServerCounters(sim_, *server_);
    c.hog_touches = hog_->pages_touched();
    c.interactions = attribution.committed();
    return c;
  }

 private:
  tcs::Simulator sim_;
  std::unique_ptr<tcs::Server> server_;
  tcs::Session* session_ = nullptr;
  std::unique_ptr<tcs::MemoryHog> hog_;
  TimePoint keystroke_at_;
  bool responded_ = false;
  Duration response_ = Duration::Zero();
};

}  // namespace

Outcome RunPaging(const RunArgs& args) {
  Outcome out;
  const tcs::OsProfile profiles[2] = {tcs::OsProfile::Tse(), tcs::OsProfile::LinuxX()};
  PinCheck pins(args, "paging", 2);
  StepLog plain(/*warm_up=*/!args.trace, /*short_steps=*/false);
  StepLog traced(/*warm_up=*/false, /*short_steps=*/false);
  SpanLog spans;
  DispatchTimer timer;
  int64_t plain_events = 0;
  std::vector<double> fidelity_ms[2];
  std::vector<double> setup_ms, resident, shared, coalesced, cpu_util;
  double peak_rss_mb = 0.0;

  Clock::time_point start = Clock::now();
  // Whole rounds only, so every run has the same mix of trials, and at least one round
  // after the warm-up.
  for (uint64_t i = 0; i < 2 * kPagingRound || i % kPagingRound != 0 || !TimeUp(start, args);
       ++i) {
    const tcs::OsProfile& profile = profiles[i % 2];
    uint64_t seed = PagingTrialSeed(args.seed, i);
    if (plain.timing() && !args.trace) {
      // Set-up: building the trial's server, login and hog, which RunPagingLatency then
      // repeats before its first event.
      tcs::LatencyAttribution attribution;
      ReleaseFreedMemory();
      Clock::time_point t0 = Clock::now();
      PagingTrial build(profile, seed, &attribution);
      setup_ms.push_back(plain.Normalize(MsSince(t0)));
    }
    tcs::LatencyAttribution attribution;
    tcs::ObsConfig obs;
    obs.attribution = &attribution;
    Clock::time_point t0 = Clock::now();
    tcs::PagingLatencyResult r = tcs::RunPagingLatency(
        profile, /*full_demand=*/true, /*runs=*/1, seed, tcs::EvictionPolicy::kGlobalLru, &obs);
    double ms = MsSince(t0);
    double sim_s = (PagingKeystrokeAt(seed) - TimePoint::Zero()).ToSecondsF() + r.avg_ms / 1e3;
    plain.Add(ms, sim_s);
    plain_events += static_cast<int64_t>(r.run.events_executed);
    if (i < kFidelityTrials) {
      fidelity_ms[i % 2].push_back(r.avg_ms);
    }
    std::string digest = ReportDigest(r);
    pins.Add(out, digest);
    bool ok = AttributionClean(attribution) && attribution.committed() >= 1 && r.runs == 1 &&
              r.avg_ms < 120000.0 && r.min_ms == r.avg_ms && r.max_ms == r.avg_ms;

    if (args.trace) {
      tcs::LatencyAttribution traced_attribution;
      int trial_span = spans.Open("trial", Counters{});
      int build_span = spans.Open("build", Counters{});
      PagingTrial trial(profile, seed, &traced_attribution);
      Counters built = trial.Read(traced_attribution);
      spans.Close(build_span, built);
      resident.push_back(static_cast<double>(trial.server().pager().frames_used()));
      shared.push_back(static_cast<double>(trial.server().pager().shared_attaches()));
      int run_span = spans.Open("run", built);
      trial.Run(timer);
      Counters done = trial.Read(traced_attribution);
      spans.Close(run_span, done);
      spans.Close(trial_span, done);
      double trial_sim_s = trial.sim().Now().ToSecondsF();
      traced.Add(spans.spans()[static_cast<size_t>(trial_span)].ms(), trial_sim_s);
      coalesced.push_back(static_cast<double>(trial.server().pager().coalesced_waits()));
      cpu_util.push_back(trial.server().cpu().busy_time().ToSecondsF() / trial_sim_s);

      tcs::PagingLatencyResult rebuilt;
      rebuilt.os_name = profile.name;
      rebuilt.full_demand = true;
      rebuilt.runs = 1;
      rebuilt.min_ms = rebuilt.avg_ms = rebuilt.max_ms = trial.response_ms();
      rebuilt.blame = traced_attribution.Collect();
      out.Guard(trial.keystroke_at() == PagingKeystrokeAt(seed) &&
                    std::llround(trial.response_ms() * 1e3) == std::llround(r.avg_ms * 1e3) &&
                    ReportDigest(rebuilt) == digest,
                "traced paging rebuild of trial " + std::to_string(i) +
                    " differs from RunPagingLatency");
      ok = ok && LinkBalanced(trial.server().link()) && AttributionClean(traced_attribution) &&
           done.hog_touches > 0;
    }
    out.Step(ok, "paging trial " + std::to_string(i));
    if ((i + 1) % kPagingRound == 0) {
      plain.EndRound();
      traced.EndRound();
      if (peak_rss_mb == 0.0) {
        peak_rss_mb = PeakRssMb();
        if (!args.trace) {
          plain.StartTiming();
        }
      }
    }
  }
  pins.Note(out);

  if (!args.trace) {
    out.AddStepMetrics(plain, 75.0);
    out.metrics["setup_s"] = Median(setup_ms) / 1e3;
    out.metrics["peak_rss_mb"] = peak_rss_mb;
    return out;
  }
  size_t trials = spans.Count("trial");
  Counters sum = spans.Sum("trial");
  AddCounterMetrics(out, sum, trials);
  AddKernelMetrics(out, timer, plain, traced, plain_events);
  double run_ns = 0.0;
  for (double ms : spans.Ms("run")) {
    run_ns += ms * 1e6;
  }
  out.metrics["workload.hog_touch_ns"] =
      sum.hog_touches > 0 ? run_ns / static_cast<double>(sum.hog_touches) : 0.0;
  out.metrics["mem.resident_pages"] = Mean(resident);
  out.metrics["mem.shared_attaches"] = Mean(shared);
  out.metrics["mem.coalesced_waits"] = Mean(coalesced);
  out.metrics["cpu.utilization"] = Mean(cpu_util);
  out.metrics["session.updates"] = 1.0;  // the trial stops at the keystroke's response
  out.metrics["core.construct_ms"] = Median(spans.Ms("build"));
  out.metrics["fidelity.paper_err_pct"] = PaperErrPct(
      {{Mean(fidelity_ms[0]), kPaperTseAvgMs}, {Mean(fidelity_ms[1]), kPaperLinuxAvgMs}});
  WriteSpans(args, spans, out);
  return out;
}

// --- consolidation and wan ---------------------------------------------------------

namespace {

constexpr int kLanUsers = 512;
constexpr int kLanEpisodeS = 300;
constexpr int kWanUsers = 32;
constexpr int kWanEpisodeS = 240;

tcs::ConsolidationOptions FleetOptions(bool wan, uint64_t seed) {
  tcs::ConsolidationOptions o;
  o.seed = seed;
  o.ram = tcs::Bytes::MiB(4096);  // every login stays resident: no faults
  if (wan) {
    o.users = kWanUsers;
    o.duration = Duration::Seconds(kWanEpisodeS);
    o.keystroke_period = Duration::Millis(200);  // RunWanPoint's default think time
    o.wan = tcs::WanProfileByName("satellite");
    o.degrade = true;
  } else {
    o.users = kLanUsers;
    o.keystroke_period = Duration::Seconds(1);
    o.duration = Duration::Seconds(kLanEpisodeS);
  }
  return o;
}

tcs::AttributionConfig RecordedAttribution(tcs::FlightRecorder* recorder) {
  tcs::AttributionConfig cfg;
  cfg.recorder = recorder;
  return cfg;
}

// One ConsolidationRun with attribution and the flight recorder attached.
struct FleetArm {
  FleetArm(const tcs::OsProfile& profile, const tcs::ConsolidationOptions& options)
      : attribution(RecordedAttribution(&recorder)) {
    obs.attribution = &attribution;
    obs.recorder = &recorder;
    ReleaseFreedMemory();
    Clock::time_point t0 = Clock::now();
    run = std::make_unique<tcs::ConsolidationRun>(profile, options, &obs);
    construct_ms = MsSince(t0);
  }

  Counters Read() {
    Counters c = ServerCounters(run->sim(), run->server());
    c.interactions = attribution.committed();
    c.recorder_records = static_cast<int64_t>(recorder.records_seen());
    return c;
  }

  bool Invariants() { return AttributionClean(attribution) && LinkBalanced(run->server().link()); }

  tcs::FlightRecorder recorder;
  tcs::LatencyAttribution attribution;
  tcs::ObsConfig obs;
  std::unique_ptr<tcs::ConsolidationRun> run;
  double construct_ms = 0.0;
};

bool ResultSane(const tcs::ConsolidationResult& r, int users) {
  return static_cast<int>(r.per_user.size()) == users && r.blame.active &&
         r.blame.accounting_mismatches == 0 && r.blame.net_mismatches == 0 &&
         r.blame.interactions > 0;
}

}  // namespace

Outcome RunFleet(const RunArgs& args, bool wan) {
  Outcome out;
  const tcs::OsProfile profile = tcs::OsProfile::Tse();
  PinCheck pins(args, wan ? "wan" : "consolidation", 1);
  StepLog plain(/*warm_up=*/!args.trace, /*short_steps=*/true);
  StepLog traced(/*warm_up=*/false, /*short_steps=*/false);
  SpanLog spans;
  DispatchTimer timer;
  int64_t plain_events = 0;
  std::vector<double> construct_ms;
  double peak_rss_mb = 0.0;
  std::vector<double> resident, shared, coalesced, link_util, cpu_util, updates, stalls,
      transitions;

  Clock::time_point start = Clock::now();
  for (uint64_t episode = 0; episode < 2 || !TimeUp(start, args); ++episode) {
    tcs::ConsolidationOptions options = FleetOptions(wan, InputSeed(args.seed, episode));
    FleetArm arm(profile, options);
    if (plain.timing() && !args.trace) {
      construct_ms.push_back(plain.Normalize(arm.construct_ms));
    }
    std::unique_ptr<FleetArm> twin;  // the traced copy of the same episode
    int episode_span = -1;
    if (args.trace) {
      episode_span = spans.Open("episode", Counters{});
      int span = spans.Open("construct", Counters{});
      twin = std::make_unique<FleetArm>(profile, options);
      spans.Close(span, twin->Read());
      timer.Attach(twin->run->sim());
    }

    int64_t end_s = (options.start_delay + options.duration).ToMicros() / 1000000;
    bool ok = true;
    for (int64_t t = 1; t <= end_s; ++t) {
      TimePoint until = TimePoint::Zero() + Duration::Seconds(t);
      Clock::time_point t0 = Clock::now();
      arm.run->RunUntil(until);
      plain.Add(MsSince(t0), 1.0);
      ok = arm.Invariants();
      if (twin != nullptr) {
        int span = spans.Open("slice", twin->Read());
        timer.Arm();
        twin->run->RunUntil(until);
        spans.Close(span, twin->Read());
        traced.Add(spans.spans()[static_cast<size_t>(span)].ms(), 1.0);
        ok = ok && twin->Invariants();
      }
      if (t < end_s) {  // the last slice's check also covers the episode's report
        out.Step(ok, "slice " + std::to_string(t) + " of episode " + std::to_string(episode));
      }
    }
    plain_events += static_cast<int64_t>(arm.run->sim().events_executed());

    tcs::ConsolidationResult r = arm.run->Finish();
    std::string digest = ReportDigest(r);
    pins.Add(out, digest);
    ok = ok && ResultSane(r, options.users);

    if (twin != nullptr) {
      int span = spans.Open("finish", twin->Read());
      tcs::ConsolidationResult tr = twin->run->Finish();
      spans.Close(span, twin->Read());
      spans.Close(episode_span, twin->Read());
      out.Guard(ReportDigest(tr) == digest, "traced episode " + std::to_string(episode) +
                                                " report differs from the untraced one");
      resident.push_back(static_cast<double>(tr.resident_pages));
      shared.push_back(static_cast<double>(tr.shared_attaches));
      coalesced.push_back(static_cast<double>(tr.coalesced_waits));
      link_util.push_back(tr.link_utilization);
      cpu_util.push_back(tr.cpu_utilization);
      double u = 0.0;
      double s = 0.0;
      for (const tcs::UserStallStats& user : tr.per_user) {
        u += static_cast<double>(user.updates);
        s += static_cast<double>(user.stall_samples_us.size());
      }
      updates.push_back(u);
      stalls.push_back(s);
      const tcs::DegradationController* ladder = twin->run->server().degradation();
      transitions.push_back(ladder != nullptr ? static_cast<double>(ladder->transitions().size())
                                              : 0.0);
    }
    out.Step(ok, "last slice and report of episode " + std::to_string(episode));
    plain.EndRound();
    traced.EndRound();
    if (episode == 0) {
      peak_rss_mb = PeakRssMb();
      if (!args.trace) {
        plain.StartTiming();
      }
    }
  }
  pins.Note(out);

  if (!args.trace) {
    out.AddStepMetrics(plain, 99.0);
    out.metrics["setup_s"] = Median(construct_ms) / 1e3;
    out.metrics["peak_rss_mb"] = peak_rss_mb;
    return out;
  }
  AddCounterMetrics(out, spans.Sum("slice"), spans.Count("slice"));
  AddKernelMetrics(out, timer, plain, traced, plain_events);
  out.metrics["mem.resident_pages"] = Mean(resident);
  out.metrics["mem.shared_attaches"] = Mean(shared);
  out.metrics["mem.coalesced_waits"] = Mean(coalesced);
  out.metrics["net.link_utilization"] = Mean(link_util);
  out.metrics["cpu.utilization"] = Mean(cpu_util);
  out.metrics["session.updates"] = Mean(updates);
  out.metrics["session.degrade_transitions"] = Mean(transitions);
  out.metrics["metrics.stall_samples"] = Mean(stalls);
  out.metrics["core.construct_ms"] = Median(spans.Ms("construct"));
  out.metrics["core.finish_ms"] = Median(spans.Ms("finish"));
  out.notes.push_back("no paper reference for this workload: fidelity.paper_err_pct is not "
                      "measured and reads 0");
  WriteSpans(args, spans, out);
  return out;
}

// --- app_traffic -------------------------------------------------------------------

namespace {

constexpr int kStepsPerApp = 600;  // RunAppWorkloadTraffic's default
// Steps (script sets) per round: enough for a round's p75 to lie below its slowest step.
constexpr uint64_t kAppRound = 4;
constexpr tcs::ProtocolKind kAppKinds[3] = {tcs::ProtocolKind::kX, tcs::ProtocolKind::kLbx,
                                            tcs::ProtocolKind::kRdp};
const char* const kReplaySpans[3] = {"replay.x", "replay.lbx", "replay.rdp"};
constexpr double kPaperRdpOverX = 0.142;  // §6.1.2 bytes relative to X
constexpr double kPaperLbxOverX = 0.51;

// The three application scripts RunAppWorkloadTraffic replays for `seed`.
std::vector<tcs::AppScript> AppScripts(uint64_t seed) {
  tcs::Rng rng(seed ^ 0xABCD);
  std::vector<tcs::AppScript> scripts;
  scripts.push_back(tcs::AppScript::WordProcessor(rng.Fork(), kStepsPerApp));
  scripts.push_back(tcs::AppScript::PhotoEditor(rng.Fork(), kStepsPerApp));
  scripts.push_back(tcs::AppScript::ControlPanel(rng.Fork(), kStepsPerApp));
  return scripts;
}

// RunAppWorkloadTraffic's protocol-only stack (link, channel senders, tap, encoder),
// rebuilt from public parts so the traced run owns its simulator and can read the link.
struct AppStack {
  AppStack(tcs::ProtocolKind kind, uint64_t seed)
      : link(sim), display(link, tcs::HeaderModel::TcpIp()),
        input(link, tcs::HeaderModel::TcpIp()), tap(Duration::Seconds(1)) {
    tcs::Rng rng(seed);
    switch (kind) {
      case tcs::ProtocolKind::kX:
        protocol = std::make_unique<tcs::XProtocol>(sim, display, input, &tap, rng);
        break;
      case tcs::ProtocolKind::kLbx:
        protocol = std::make_unique<tcs::LbxProtocol>(sim, display, input, &tap, rng);
        break;
      default: {
        tcs::RdpConfig cfg;
        cfg.cache.policy = tcs::CachePolicy::kLru;
        protocol = std::make_unique<tcs::RdpProtocol>(sim, display, input, &tap, rng, cfg);
        break;
      }
    }
  }

  // Replays the scripts back to back exactly as RunAppWorkloadTraffic does.
  tcs::ProtocolTrafficResult Replay(const std::vector<tcs::AppScript>& scripts,
                                    DispatchTimer& timer) {
    timer.Attach(sim);
    for (const tcs::AppScript& script : scripts) {
      TimePoint end = sim.Now() + script.TotalDuration();
      script.Replay(sim, *protocol);
      timer.Arm();
      sim.RunUntil(end);
    }
    protocol->Flush();
    timer.Arm();
    sim.RunFor(Duration::Seconds(1));

    tcs::ProtocolTrafficResult r;
    r.protocol = protocol->name();
    r.input.bytes = tap.counted_bytes(tcs::Channel::kInput).count();
    r.input.messages = tap.messages(tcs::Channel::kInput);
    r.display.bytes = tap.counted_bytes(tcs::Channel::kDisplay).count();
    r.display.messages = tap.messages(tcs::Channel::kDisplay);
    r.total_bytes = r.input.bytes + r.display.bytes;
    r.total_messages = r.input.messages + r.display.messages;
    r.avg_message_size = tap.AverageMessageSize();
    r.packets = display.packets_sent() + input.packets_sent();
    r.vip_bytes = r.total_bytes - 20 * r.packets;
    return r;
  }

  Counters Read() {
    Counters c;
    c.events = static_cast<int64_t>(sim.events_executed());
    c.frames_sent = link.frames_sent();
    c.frames_delivered = link.frames_delivered();
    c.frames_lost = link.frames_lost();
    c.messages = tap.total_messages();
    c.bytes = tap.total_counted_bytes().count();
    c.packets = display.packets_sent() + input.packets_sent();
    return c;
  }

  tcs::Simulator sim;
  tcs::Link link;
  tcs::MessageSender display;
  tcs::MessageSender input;
  tcs::ProtoTap tap;
  std::unique_ptr<tcs::DisplayProtocol> protocol;
};

bool TrafficSane(const tcs::ProtocolTrafficResult& r) {
  return r.total_bytes == r.input.bytes + r.display.bytes &&
         r.total_messages == r.input.messages + r.display.messages && r.packets > 0 &&
         r.vip_bytes == r.total_bytes - 20 * r.packets && r.display.bytes > 0;
}

}  // namespace

Outcome RunAppTraffic(const RunArgs& args) {
  Outcome out;
  PinCheck pins(args, "app_traffic", 3);
  StepLog plain(/*warm_up=*/!args.trace, /*short_steps=*/false);
  StepLog traced(/*warm_up=*/false, /*short_steps=*/false);
  SpanLog spans;
  DispatchTimer timer;
  int64_t plain_events = 0;
  std::vector<double> setup_ms;
  double peak_rss_mb = 0.0;
  int64_t first_step_bytes[3] = {0, 0, 0};

  Clock::time_point start = Clock::now();
  // Whole rounds only, and at least one round after the warm-up.
  for (uint64_t step = 0; step < 2 * kAppRound || step % kAppRound != 0 || !TimeUp(start, args);
       ++step) {
    uint64_t seed = InputSeed(args.seed, step);
    // Set-up: the step's scripts and one protocol stack per protocol.
    ReleaseFreedMemory();
    Clock::time_point s0 = Clock::now();
    std::vector<tcs::AppScript> scripts = AppScripts(seed);
    for (tcs::ProtocolKind kind : kAppKinds) {
      AppStack stack(kind, seed);
    }
    if (plain.timing() && !args.trace) {
      setup_ms.push_back(plain.Normalize(MsSince(s0)));
    }
    Duration replay_span = Duration::Seconds(1);  // the final flush's second
    for (const tcs::AppScript& script : scripts) {
      replay_span = replay_span + script.TotalDuration();
    }
    double sim_s = replay_span.ToSecondsF();

    // One step replays its scripts over X, LBX and RDP: the three protocols' host
    // times differ by 20x, so a step per protocol would put the median between two of them.
    double step_ms = 0.0;
    for (int k = 0; k < 3; ++k) {
      Clock::time_point t0 = Clock::now();
      tcs::ProtocolTrafficResult r = tcs::RunAppWorkloadTraffic(kAppKinds[k], seed);
      step_ms += MsSince(t0);
      plain_events += static_cast<int64_t>(r.run.events_executed);
      if (step == 0) {
        first_step_bytes[k] = r.total_bytes;
      }
      std::string digest = ReportDigest(r);
      pins.Add(out, digest);
      bool ok = TrafficSane(r);

      if (args.trace) {
        int span = spans.Open(kReplaySpans[k], Counters{});
        AppStack stack(kAppKinds[k], seed);
        tcs::ProtocolTrafficResult tr = stack.Replay(scripts, timer);
        spans.Close(span, stack.Read());
        traced.Add(spans.spans()[static_cast<size_t>(span)].ms(), stack.sim.Now().ToSecondsF());
        out.Guard(ReportDigest(tr) == digest && stack.sim.Now() - TimePoint::Zero() == replay_span,
                  std::string("traced ") + kReplaySpans[k] + " rebuild of step " +
                      std::to_string(step) + " differs from RunAppWorkloadTraffic");
        ok = ok && LinkBalanced(stack.link);
      }
      out.Step(ok, std::string(kReplaySpans[k]) + " of step " + std::to_string(step));
    }
    plain.Add(step_ms, 3 * sim_s);
    if ((step + 1) % kAppRound != 0) {
      continue;
    }
    plain.EndRound();
    traced.EndRound();
    if (step + 1 == kAppRound) {
      peak_rss_mb = PeakRssMb();
      if (!args.trace) {
        plain.StartTiming();
      }
    }
  }
  pins.Note(out);

  if (!args.trace) {
    out.AddStepMetrics(plain, 75.0);
    out.metrics["setup_s"] = Median(setup_ms) / 1e3;
    out.metrics["peak_rss_mb"] = peak_rss_mb;
    return out;
  }
  Counters sum;
  size_t replays = 0;
  double replay_ns = 0.0;
  for (int k = 0; k < 3; ++k) {
    sum += spans.Sum(kReplaySpans[k]);
    replays += spans.Count(kReplaySpans[k]);
    for (double ms : spans.Ms(kReplaySpans[k])) {
      replay_ns += ms * 1e6;
    }
  }
  AddCounterMetrics(out, sum, replays);
  AddKernelMetrics(out, timer, plain, traced, plain_events);
  out.metrics["proto.replay_ms.x"] = Median(spans.Ms("replay.x"));
  out.metrics["proto.replay_ms.lbx"] = Median(spans.Ms("replay.lbx"));
  out.metrics["proto.replay_ms.rdp"] = Median(spans.Ms("replay.rdp"));
  out.metrics["proto.ns_per_message"] =
      sum.messages > 0 ? replay_ns / static_cast<double>(sum.messages) : 0.0;
  double x = static_cast<double>(first_step_bytes[0]);
  out.metrics["fidelity.paper_err_pct"] =
      PaperErrPct({{static_cast<double>(first_step_bytes[2]) / x, kPaperRdpOverX},
                   {static_cast<double>(first_step_bytes[1]) / x, kPaperLbxOverX}});
  WriteSpans(args, spans, out);
  return out;
}

}  // namespace perfbench
