// tcsctl — command-line driver for the tcs thin-client latency framework.
//
//   tcsctl <command> [flags]
//
// Commands:
//   idle     --os=tse|linux|ntws [--seconds=N]           idle-state profile (Figs 1-2)
//   typing   --os=... [--sinks=N --seconds=N --cpus=N --seed=N]  stall vs load (Fig 3)
//   paging   --os=... [--full-demand --runs=N --protect --seed=N]  keystroke-after-hog
//            (§5.2)
//   traffic  --protocol=rdp|x|lbx|slim|vnc [--steps=N]   app-workload bytes (§6.1.2)
//   webpage  [--no-banner --no-marquee --seconds=N]      Figure 4 page over RDP
//   gif      --protocol=... [--frames=N --seconds=N --loop-aware]  Figures 5/7
//   rtt      [--mbps=X --seconds=N]                      Figures 8-9 probe
//   sizing   --os=... --users=N [--seconds=N --seed=N]   utilization vs latency sizing
//   capacity [--os=tse,linux,linux:lbx --max-users=N --seconds=N --sinks=N
//            --burst-ms=N --burst-every-ms=N --ram-mib=N --max-util=0.85
//            --max-p99-ms=100 --jobs=N --seed=N --report-out=capacity.json]
//            admission-control capacity search: for every OS(:protocol) configuration,
//            binary-searches the maximum number of concurrently admitted interactive
//            users under both sizing doctrines — utilization-based (aggregate CPU below
//            --max-util) and latency-based (every user's p99 keystroke stall below
//            --max-p99-ms) — over the full consolidation stack: per-session protocol
//            pipelines multiplexed on the shared link, cross-session text-page sharing
//            in the pager, per-user typing plus periodic application bursts. Reports
//            both answers side by side and flags configurations where utilization
//            sizing over-admits. Output is byte-identical for any --jobs value.
//   e2e      --os=... [--sinks=N --background-mbps=X --client=pc|winterm|handheld
//            --loss=X --seconds=N --seed=N]
//   sweep    --experiment=typing|sizing|e2e [--os=tse,linux,... --sinks=L --users=L
//            --seconds=N --jobs=N --seed=N]              parallel config-matrix sweep
//   chaos    --os=... [--loss=0,0.01,0.05 --flap-ms=0,50 --flap-every-ms=2000
//            --disk-stall=X --disconnect-ms=N --sinks=N --seconds=N --jobs=N --seed=N
//            --threshold-ms=150 --report-out=chaos.json]
//            fault-injection sweep: crosses frame-loss rates with link-outage ("flap")
//            lengths, runs the end-to-end typing workload under each deterministic fault
//            plan, and reports the keystroke latency distribution (p50/p99), the fraction
//            above the perception threshold, availability, and the retransmission ledger.
//            The first grid point whose p99 crosses --threshold-ms is called out. Output
//            is byte-identical for any --jobs value.
//   wan      --os=... [--profile=dsl,lte,satellite,congested-office --users=N
//            --seconds=N --jobs=N --seed=N --threshold-ms=150 --starve-after-ms=1000
//            --report-out=wan.json]
//            WAN pathology sweep: runs each named link profile (RTT + jitter, asymmetric
//            up/down bandwidth, bufferbloat drop-tail queue, Gilbert-Elliott burst loss)
//            twice — graceful degradation off, then on — with both arms sharing the same
//            seed, and compares worst-user p99, availability, and starvation. The
//            degrade-on arm arms the backpressure-driven DegradationController
//            (coalesce draw batches, thin animation frames, force harder bitmap caching,
//            pause background sessions) and reports its transition ledger. Output is
//            byte-identical for any --jobs value.
//   whatif   --os=... [--profile=lte --component=all|link,cpu,disk,rtt --speedup=2
//            --rtt-delta-ms=40 --users=N --seconds=N --degrade --jobs=N --seed=N
//            --report-out=whatif.json]
//            counterfactual what-if analysis: for each component, runs the WAN cell
//            twice — a baseline whose per-interaction critical paths feed the analytic
//            prediction (virtually speed up that one component), and an achieved arm
//            actually re-simulated with the speedup applied to the hardware model. The
//            table pairs the predicted p99 delta with the achieved one; the gap between
//            them is the second-order effects (queue drain, fewer RTOs, different
//            batching) the model cannot see. Output is byte-identical for any --jobs
//            value; the report JSON carries no wall-clock field, so CI can cmp(1) runs.
//   blame    [--os=tse,linux,linux:lbx --sinks=0,5 --seconds=N --background-mbps=X
//            --loss=X --flap-ms=N --threshold-ms=100 --profile=WAN --jobs=N --seed=N
//            --report-out=blame.json]
//            per-interaction latency attribution: runs the end-to-end keystroke workload
//            for every OS(:protocol) x sinks configuration and prints the per-stage blame
//            table — exactly where each interaction's microseconds went (input-net,
//            retransmit, sched-wait, cpu-service, mem-stall, proto-encode, display-net,
//            client-decode; stages sum exactly to end-to-end). Names the configuration
//            whose p99 first crosses --threshold-ms and the stage that dominates it.
//            An `--os` entry may carry a protocol suffix (e.g. linux:lbx runs the X
//            pipeline over LBX). With --profile=dsl|lte|satellite|congested-office the
//            runs go through that WAN pathology and a second table decomposes the
//            display-net stage into bufferbloat queueing, retransmit wait,
//            serialization, propagation, and jitter (sub-stages sum exactly to the
//            display-net total). Output is byte-identical for any --jobs value.
//   postmortem <experiment> [experiment flags] [--slo-p99-ms=100 --slo-availability=0.99
//            --slo-backlog-kb=N --slo-starved=X --postmortem-dir=postmortems]
//            run one experiment (typing|e2e|chaos|consolidation) under a (by default
//            tight) SLO; on violation the always-on flight recorder's frozen window and
//            a forensic summary are written as <dir>/<name>.trace.json and
//            <dir>/<name>.postmortem.json, deterministically named and byte-identical
//            across reruns. Prints the per-objective verdicts and bundle paths.
//            Consolidation also takes --rewind-ms=N [--checkpoint-every-ms=250
//            --rewind-out=FILE]: the run is checkpointed on a periodic ring, and when
//            the SLO trips a replay is forked from the newest checkpoint at least N
//            virtual ms before the violation with the full tracer attached. The fork
//            is deterministic — it reproduces the violation at the same virtual
//            instant — so the written trace is the actual lead-up, not a re-creation.
//   trace    <experiment> [experiment flags] [--out=trace.json --metrics-out=metrics.csv
//            --report-out=report.json --categories=cpu,sched,...]
//            run one experiment observed: writes a Perfetto-loadable Chrome trace, the
//            sampled gauge series as CSV, and a structured JSON report. Experiments:
//            typing|paging|e2e|sizing|traffic|gif (long aliases accepted). The trace is
//            byte-identical for a given seed.
//   replay   <trace-file> --protocol=...                 replay a recorded session
//   help
//
// Add --csv to table-producing commands for machine-readable output.
//
// `sweep` crosses the OS list with the load list (sinks for typing/e2e, users for
// sizing) and fans the configurations out over a worker pool (--jobs, default: all
// cores). Each configuration gets a deterministic seed derived from --seed and its
// position in the matrix, so output is byte-identical for any worker count.
//
// `sweep` (typing/e2e), `chaos`, and `capacity` also accept the --slo-* flags: each
// configuration is then watched by an SloWatchdog and violating cells leave forensic
// bundles under --postmortem-dir, even though the sweep itself runs trace-off.

#include <cstdio>
#include <memory>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/admission.h"
#include "src/core/checkpoint.h"
#include "src/core/experiments.h"
#include "src/core/parallel_sweep.h"
#include "src/core/report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proto/lbx_protocol.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/slim_protocol.h"
#include "src/proto/vnc_protocol.h"
#include "src/proto/x_protocol.h"
#include "src/session/server.h"
#include "src/util/config_error.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/workload/script_io.h"

namespace tcs {
namespace {

int Usage() {
  std::printf(
      "tcsctl — thin-client latency framework driver\n"
      "commands: idle typing paging traffic webpage gif rtt sizing capacity e2e sweep "
      "chaos wan whatif blame postmortem trace replay help\n"
      "run `tcsctl help` or see the header of tools/tcsctl.cc for flags.\n");
  return 2;
}

bool ParseOs(const std::string& word, OsProfile* profile) {
  if (word == "tse") {
    *profile = OsProfile::Tse();
  } else if (word == "linux") {
    *profile = OsProfile::LinuxX();
  } else if (word == "ntws") {
    *profile = OsProfile::NtWorkstation();
  } else if (word == "svr4") {
    *profile = OsProfile::LinuxSvr4();
  } else {
    std::fprintf(stderr, "unknown --os '%s' (tse|linux|ntws|svr4)\n", word.c_str());
    return false;
  }
  return true;
}

bool ParseProtocol(const std::string& word, ProtocolKind* kind) {
  if (word == "rdp") {
    *kind = ProtocolKind::kRdp;
  } else if (word == "x") {
    *kind = ProtocolKind::kX;
  } else if (word == "lbx") {
    *kind = ProtocolKind::kLbx;
  } else if (word == "slim") {
    *kind = ProtocolKind::kSlim;
  } else if (word == "vnc") {
    *kind = ProtocolKind::kVnc;
  } else {
    std::fprintf(stderr, "unknown --protocol '%s' (rdp|x|lbx|slim|vnc)\n", word.c_str());
    return false;
  }
  return true;
}

uint64_t Seed(FlagSet& flags) { return static_cast<uint64_t>(flags.GetInt("seed", 1)); }

void Emit(const TextTable& table, bool csv) {
  std::printf("%s", csv ? table.RenderCsv().c_str() : table.Render().c_str());
}

bool WriteFile(const std::string& path, const std::string& contents);

// --report-out for the sweeps: {"experiment":...,"points":[<each point's report>]}.
// True when no report was asked for or it was written.
template <typename Point>
bool WritePointsReport(FlagSet& flags, const char* experiment,
                       const std::vector<Point>& points) {
  std::string path = flags.GetString("report-out", "");
  if (path.empty()) {
    return true;
  }
  std::string report = std::string("{\"experiment\":\"") + experiment + "\",\"points\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    report += (i > 0 ? "," : "") + ToJson(points[i]);
  }
  return WriteFile(path, report + "]}\n");
}

// One sweep cell's observability: its own copy of the --slo-* spec under a
// deterministic bundle name, or no ObsConfig at all when no objective was asked for.
class CellSlo {
 public:
  CellSlo(const SloSpec& base, std::string name) : spec_(base) {
    spec_.name = std::move(name);
    obs_.slo = &spec_;
  }
  CellSlo(const CellSlo&) = delete;
  CellSlo& operator=(const CellSlo&) = delete;
  const ObsConfig* obs() const { return spec_.Any() ? &obs_ : nullptr; }

 private:
  SloSpec spec_;
  ObsConfig obs_;
};

// One sweep cell's SLO verdict: prints "SLO violated <where>: <objective>" and the
// bundle paths when the cell violated; returns whether it did.
template <typename... Args>
bool PrintViolation(const SloReport& slo, const char* where, Args... args) {
  if (!slo.active || slo.passed) {
    return false;
  }
  std::printf("SLO violated ");
  std::printf(where, args...);
  std::printf(": %s\n", slo.violating_objective.c_str());
  for (const std::string& path : slo.postmortems) {
    std::printf("  postmortem: %s\n", path.c_str());
  }
  return true;
}

int CmdIdle(FlagSet& flags) {
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "tse"), &profile)) {
    return 2;
  }
  int64_t seconds = flags.GetInt("seconds", 60);
  IdleProfileResult r = RunIdleProfile(profile, Duration::Seconds(seconds));
  TextTable table({"event length (ms)", "cumulative busy (s)"});
  for (const auto& pt : r.cumulative) {
    table.AddRow({TextTable::Fixed(pt.event_length.ToMillisF(), 1),
                  TextTable::Fixed(pt.cumulative_latency.ToSecondsF(), 3)});
  }
  Emit(table, flags.GetBool("csv"));
  std::printf("total idle busy over %llds: %s (%.2f%% of the trace)\n",
              static_cast<long long>(seconds), r.total_busy.ToString().c_str(),
              100.0 * r.total_busy.ToSecondsF() / static_cast<double>(seconds));
  return 0;
}

int CmdTyping(FlagSet& flags) {
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "tse"), &profile)) {
    return 2;
  }
  TypingUnderLoadResult r = RunTypingUnderLoad(
      profile, static_cast<int>(flags.GetInt("sinks", 0)),
      Duration::Seconds(flags.GetInt("seconds", 60)), Seed(flags),
      static_cast<int>(flags.GetInt("cpus", 1)));
  std::printf("%s, %d sinks: avg stall %.1f ms, max %.1f ms, jitter %.1f ms, %lld "
              "updates\n",
              r.os_name.c_str(), r.sinks, r.avg_stall_ms, r.max_stall_ms, r.jitter_ms,
              static_cast<long long>(r.updates));
  return 0;
}

int CmdPaging(FlagSet& flags) {
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "linux"), &profile)) {
    return 2;
  }
  if (flags.Has("seconds")) {
    std::fprintf(stderr, "paging takes no --seconds: every trial types one key after "
                         "~30 s of hog think time (--runs sets the trial count)\n");
    return 2;
  }
  EvictionPolicy policy = flags.GetBool("protect") ? EvictionPolicy::kInteractiveProtect
                                                   : EvictionPolicy::kGlobalLru;
  PagingLatencyResult r =
      RunPagingLatency(profile, flags.GetBool("full-demand", true),
                       static_cast<int>(flags.GetInt("runs", 10)), Seed(flags), policy);
  std::printf("%s (%s demand, %s): min %.0f ms, avg %.0f ms, max %.0f ms over %d runs\n",
              r.os_name.c_str(), r.full_demand ? ">=100%" : "<100%",
              policy == EvictionPolicy::kGlobalLru ? "global LRU" : "interactive-protect",
              r.min_ms, r.avg_ms, r.max_ms, r.runs);
  return 0;
}

int CmdTraffic(FlagSet& flags) {
  ProtocolKind kind;
  if (!ParseProtocol(flags.GetString("protocol", "rdp"), &kind)) {
    return 2;
  }
  ProtocolTrafficResult r =
      RunAppWorkloadTraffic(kind, 1, static_cast<int>(flags.GetInt("steps", 600)));
  TextTable table({"channel", "bytes", "messages"});
  table.AddRow({"input", TextTable::Num(r.input.bytes), TextTable::Num(r.input.messages)});
  table.AddRow(
      {"display", TextTable::Num(r.display.bytes), TextTable::Num(r.display.messages)});
  table.AddRow({"total", TextTable::Num(r.total_bytes), TextTable::Num(r.total_messages)});
  Emit(table, flags.GetBool("csv"));
  std::printf("avg message %.1f B; VIP would save %s\n", r.avg_message_size,
              TextTable::Percent(static_cast<double>(r.total_bytes - r.vip_bytes) /
                                 static_cast<double>(r.total_bytes), 2)
                  .c_str());
  return 0;
}

int CmdWebpage(FlagSet& flags) {
  AnimationLoadResult r = RunWebPageLoad(
      ProtocolKind::kRdp, !flags.GetBool("no-banner"), !flags.GetBool("no-marquee"),
      Duration::Seconds(flags.GetInt("seconds", 160)));
  std::printf("%s: sustained %.3f Mbps (mean %.3f); cache %lld hits / %lld misses\n",
              r.protocol.c_str(), r.sustained_mbps, r.mean_mbps,
              static_cast<long long>(r.cache_hits), static_cast<long long>(r.cache_misses));
  return 0;
}

int CmdGif(FlagSet& flags) {
  ProtocolKind kind;
  if (!ParseProtocol(flags.GetString("protocol", "rdp"), &kind)) {
    return 2;
  }
  GifAnimationOptions opt;
  opt.frames = static_cast<int>(flags.GetInt("frames", 10));
  opt.duration = Duration::Seconds(flags.GetInt("seconds", 20));
  if (flags.GetBool("loop-aware")) {
    opt.cache_policy = CachePolicy::kLoopAware;
  }
  AnimationLoadResult r = RunGifAnimation(kind, opt);
  std::printf("%s, %d frames: sustained %.3f Mbps; cache hit ratio %.1f%%\n",
              r.protocol.c_str(), opt.frames, r.sustained_mbps,
              r.cumulative_hit_ratio * 100.0);
  return 0;
}

int CmdRtt(FlagSet& flags) {
  RttProbeResult r = RunRttProbe(flags.GetDouble("mbps", 0.0),
                                 Duration::Seconds(flags.GetInt("seconds", 60)));
  std::printf("offered %.1f Mbps: mean RTT %.2f ms, variance %.3f ms^2\n",
              r.offered_mbps, r.mean_rtt_ms, r.rtt_variance);
  return 0;
}

int CmdSizing(FlagSet& flags) {
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "tse"), &profile)) {
    return 2;
  }
  SizingPoint p = RunServerSizing(profile, static_cast<int>(flags.GetInt("users", 10)),
                                  Duration::Seconds(flags.GetInt("seconds", 30)),
                                  Seed(flags));
  std::printf("%s, %d users: CPU %.1f%%, avg stall %.1f ms, worst user %.1f ms\n",
              p.os_name.c_str(), p.users, p.cpu_utilization * 100.0, p.avg_stall_ms,
              p.worst_stall_ms);
  return 0;
}

// The end-to-end run the `e2e`, `postmortem e2e` and `trace e2e` flags describe.
bool EndToEndFromFlags(FlagSet& flags, EndToEndOptions* opt) {
  opt->sinks = static_cast<int>(flags.GetInt("sinks", 0));
  opt->background_mbps = flags.GetDouble("background-mbps", 0.0);
  opt->duration = Duration::Seconds(flags.GetInt("seconds", 30));
  opt->seed = Seed(flags);
  opt->faults.link.loss_rate = flags.GetDouble("loss", 0.0);
  std::string client = flags.GetString("client", "pc");
  if (client == "pc") {
    opt->client = ThinClientConfig::DesktopPc();
  } else if (client == "winterm") {
    opt->client = ThinClientConfig::WinTerm();
  } else if (client == "handheld") {
    opt->client = ThinClientConfig::Handheld();
  } else {
    std::fprintf(stderr, "unknown --client '%s' (pc|winterm|handheld)\n", client.c_str());
    return false;
  }
  return true;
}

int CmdE2e(FlagSet& flags) {
  OsProfile profile;
  EndToEndOptions opt;
  if (!ParseOs(flags.GetString("os", "tse"), &profile) || !EndToEndFromFlags(flags, &opt)) {
    return 2;
  }
  EndToEndResult r = RunEndToEndLatency(profile, opt);
  std::printf("%s on %s: input %.2f + server %.2f + display %.2f + client %.2f = %.2f ms "
              "(%lld updates)\n",
              r.os_name.c_str(), r.client_name.c_str(), r.input_net_ms, r.server_ms,
              r.display_net_ms, r.client_ms, r.total_ms,
              static_cast<long long>(r.updates));
  return 0;
}

// Splits a comma-separated flag value ("0,2,5") into tokens.
std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> out;
  std::string token;
  std::stringstream stream(value);
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) {
      out.push_back(token);
    }
  }
  return out;
}

bool ParseIntList(const std::string& value, const char* flag, std::vector<int>* out) {
  for (const std::string& token : SplitList(value)) {
    try {
      out->push_back(std::stoi(token));
    } catch (...) {
      std::fprintf(stderr, "bad --%s entry '%s'\n", flag, token.c_str());
      return false;
    }
  }
  return true;
}

SloSpec SloSpecFromFlags(FlagSet& flags);

int CmdSweep(FlagSet& flags) {
  std::string experiment = flags.GetString("experiment", "typing");
  if (experiment != "typing" && experiment != "sizing" && experiment != "e2e") {
    std::fprintf(stderr, "unknown --experiment '%s' (typing|sizing|e2e)\n",
                 experiment.c_str());
    return 2;
  }

  std::string os_list = flags.GetString("os", "all");
  if (os_list == "all") {
    os_list = "tse,linux,ntws,svr4";
  }
  std::vector<OsProfile> profiles;
  for (const std::string& word : SplitList(os_list)) {
    OsProfile profile;
    if (!ParseOs(word, &profile)) {
      return 2;
    }
    profiles.push_back(std::move(profile));
  }

  std::vector<int> loads;  // sinks for typing/e2e, users for sizing
  const char* load_label = experiment == "sizing" ? "users" : "sinks";
  std::string load_default = experiment == "sizing" ? "2,4,8,16" : "0,2,5,10";
  if (!ParseIntList(flags.GetString(load_label, load_default), load_label, &loads)) {
    return 2;
  }
  if (profiles.empty() || loads.empty()) {
    std::fprintf(stderr, "sweep needs at least one --os and one --%s value\n", load_label);
    return 2;
  }

  Duration seconds = Duration::Seconds(flags.GetInt("seconds", 30));
  uint64_t base_seed = Seed(flags);
  int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  int load_count = static_cast<int>(loads.size());
  int configs = static_cast<int>(profiles.size()) * load_count;
  SloSpec base_slo = SloSpecFromFlags(flags);
  if (base_slo.Any() && experiment == "sizing") {
    std::fprintf(stderr, "--slo-* flags are not supported for --experiment=sizing "
                         "(use typing or e2e)\n");
    return 2;
  }

  // One row per configuration, OS-major, load-minor: the same order the equivalent
  // serial loops would produce, regardless of --jobs.
  ParallelSweep sweep(jobs);
  TextTable table = [&] {
    if (experiment == "typing") {
      return TextTable({"os", "sinks", "avg stall (ms)", "max stall (ms)", "jitter (ms)",
                        "updates"});
    }
    if (experiment == "sizing") {
      return TextTable({"os", "users", "CPU util", "avg stall (ms)", "worst user (ms)"});
    }
    return TextTable({"os", "sinks", "input (ms)", "server (ms)", "display (ms)",
                      "client (ms)", "total (ms)"});
  }();

  std::vector<std::vector<std::string>> rows;
  std::vector<SloReport> slo_reports;  // config order; empty unless --slo-* given
  if (experiment == "typing") {
    auto results = sweep.Map(configs, [&](int i) {
      CellSlo cell(base_slo, "sweep_typing_cfg" + std::to_string(i));
      return RunTypingUnderLoad(profiles[static_cast<size_t>(i / load_count)],
                                loads[static_cast<size_t>(i % load_count)], seconds,
                                SweepSeed(base_seed, static_cast<uint64_t>(i)), 1,
                                cell.obs());
    });
    for (TypingUnderLoadResult& r : results) {
      rows.push_back({r.os_name, TextTable::Num(r.sinks),
                      TextTable::Fixed(r.avg_stall_ms, 1),
                      TextTable::Fixed(r.max_stall_ms, 1),
                      TextTable::Fixed(r.jitter_ms, 1), TextTable::Num(r.updates)});
      slo_reports.push_back(std::move(r.slo));
    }
  } else if (experiment == "sizing") {
    auto results = sweep.Map(configs, [&](int i) {
      return RunServerSizing(profiles[static_cast<size_t>(i / load_count)],
                             loads[static_cast<size_t>(i % load_count)], seconds,
                             SweepSeed(base_seed, static_cast<uint64_t>(i)));
    });
    for (const SizingPoint& p : results) {
      rows.push_back({p.os_name, TextTable::Num(p.users),
                      TextTable::Percent(p.cpu_utilization, 1),
                      TextTable::Fixed(p.avg_stall_ms, 1),
                      TextTable::Fixed(p.worst_stall_ms, 1)});
    }
  } else {
    double background_mbps = flags.GetDouble("background-mbps", 0.0);
    auto results = sweep.Map(configs, [&](int i) {
      EndToEndOptions opt;
      opt.sinks = loads[static_cast<size_t>(i % load_count)];
      opt.background_mbps = background_mbps;
      opt.duration = seconds;
      opt.seed = SweepSeed(base_seed, static_cast<uint64_t>(i));
      CellSlo cell(base_slo, "sweep_e2e_cfg" + std::to_string(i));
      return RunEndToEndLatency(profiles[static_cast<size_t>(i / load_count)], opt,
                                cell.obs());
    });
    for (size_t i = 0; i < results.size(); ++i) {
      EndToEndResult& r = results[i];
      rows.push_back({r.os_name, TextTable::Num(loads[i % loads.size()]),
                      TextTable::Fixed(r.input_net_ms, 2),
                      TextTable::Fixed(r.server_ms, 2),
                      TextTable::Fixed(r.display_net_ms, 2),
                      TextTable::Fixed(r.client_ms, 2), TextTable::Fixed(r.total_ms, 2)});
      slo_reports.push_back(std::move(r.slo));
    }
  }
  for (auto& row : rows) {
    table.AddRow(std::move(row));
  }
  Emit(table, flags.GetBool("csv"));
  if (base_slo.Any()) {
    int violated = 0;
    for (size_t i = 0; i < slo_reports.size(); ++i) {
      violated += PrintViolation(slo_reports[i], "at config %zu", i);
    }
    std::printf("SLO: %d of %d configs violated\n", violated, configs);
  }
  // stderr, so stdout stays byte-identical for any --jobs value (and CSV stays clean).
  std::fprintf(stderr, "%d configs over %d workers\n", configs, sweep.workers());
  return 0;
}

bool ParseDoubleList(const std::string& value, const char* flag,
                     std::vector<double>* out) {
  for (const std::string& token : SplitList(value)) {
    try {
      out->push_back(std::stod(token));
    } catch (...) {
      std::fprintf(stderr, "bad --%s entry '%s'\n", flag, token.c_str());
      return false;
    }
  }
  return true;
}

// The shared --slo-* flags as an SloSpec; a spec with no flags set checks nothing
// (Any() is false), so commands only pay for the watchdog when asked.
SloSpec SloSpecFromFlags(FlagSet& flags) {
  SloSpec spec;
  spec.max_worst_p99_ms = flags.GetDouble("slo-p99-ms", 0.0);
  spec.min_availability = flags.GetDouble("slo-availability", 0.0);
  spec.max_link_backlog_bytes = flags.GetInt("slo-backlog-kb", 0) * 1024;
  spec.max_starved_fraction = flags.GetDouble("slo-starved", -1.0);
  spec.out_dir = flags.GetString("postmortem-dir", "postmortems");
  return spec;
}

// Per-objective verdicts plus any bundle paths, for humans.
void PrintSloReport(const SloReport& slo, const char* label) {
  if (!slo.active) {
    return;
  }
  for (const SloObjectiveResult& o : slo.objectives) {
    std::printf("%s  %-20s limit %.3f observed %.3f  %s\n", label, o.objective.c_str(),
                o.limit, o.observed, o.passed ? "ok" : "VIOLATED");
  }
  if (!slo.passed) {
    std::printf("%s  first violation: %s at %.3f ms virtual\n", label,
                slo.violating_objective.c_str(),
                static_cast<double>(slo.violated_at_us) / 1000.0);
    for (const std::string& path : slo.postmortems) {
      std::printf("%s  postmortem: %s\n", label, path.c_str());
    }
  }
}

// The chaos point the shared flags describe, before the loss rate and flap length.
ChaosOptions ChaosFromFlags(FlagSet& flags) {
  ChaosOptions opt;
  opt.flap_every = Duration::Millis(flags.GetInt("flap-every-ms", 2000));
  opt.disk_stall_rate = flags.GetDouble("disk-stall", 0.0);
  opt.disconnect_every = Duration::Millis(flags.GetInt("disconnect-ms", 0));
  opt.sinks = static_cast<int>(flags.GetInt("sinks", 0));
  opt.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  opt.seed = Seed(flags);
  opt.threshold = Duration::Millis(flags.GetInt("threshold-ms", 150));
  return opt;
}

int CmdChaos(FlagSet& flags) {
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "tse"), &profile)) {
    return 2;
  }
  std::vector<double> losses;
  if (!ParseDoubleList(flags.GetString("loss", "0,0.01,0.05"), "loss", &losses)) {
    return 2;
  }
  std::vector<int> flap_ms;
  if (!ParseIntList(flags.GetString("flap-ms", "0,50"), "flap-ms", &flap_ms)) {
    return 2;
  }
  if (losses.empty() || flap_ms.empty()) {
    std::fprintf(stderr, "chaos needs at least one --loss and one --flap-ms value\n");
    return 2;
  }
  for (double loss : losses) {
    if (loss < 0.0 || loss >= 1.0) {
      std::fprintf(stderr, "--loss entries must be in [0,1)\n");
      return 2;
    }
  }

  const ChaosOptions base = ChaosFromFlags(flags);
  const Duration threshold = base.threshold;
  int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  int flap_count = static_cast<int>(flap_ms.size());
  int configs = static_cast<int>(losses.size()) * flap_count;

  // Loss-major, flap-minor, each config with a position-derived seed: the grid is
  // byte-identical for any --jobs value. With --slo-* flags, every cell runs under its
  // own watchdog and run-local flight recorder (the sweep stays trace-off); violating
  // cells leave bundles named by grid position + seed, so --jobs cannot rename them.
  SloSpec base_slo = SloSpecFromFlags(flags);
  ParallelSweep sweep(jobs);
  auto points = sweep.Map(configs, [&](int i) {
    ChaosOptions opt = base;
    opt.loss_rate = losses[static_cast<size_t>(i / flap_count)];
    int flap = flap_ms[static_cast<size_t>(i % flap_count)];
    if (flap > 0) {
      opt.flap_duration = Duration::Millis(flap);
    }
    opt.seed = SweepSeed(base.seed, static_cast<uint64_t>(i));
    CellSlo cell(base_slo,
                 "chaos_cell" + std::to_string(i) + "_seed" + std::to_string(opt.seed));
    return RunChaosPoint(profile, opt, cell.obs());
  });

  TextTable table({"loss", "flap (ms)", "p50 (ms)", "p99 (ms)", "mean (ms)",
                   "> threshold", "availability", "retransmits", "updates"});
  const ChaosPoint* first_crossing = nullptr;
  for (const ChaosPoint& p : points) {
    table.AddRow({TextTable::Percent(p.loss_rate, 1), TextTable::Fixed(p.flap_ms, 0),
                  TextTable::Fixed(p.p50_ms, 2), TextTable::Fixed(p.p99_ms, 2),
                  TextTable::Fixed(p.mean_ms, 2),
                  TextTable::Percent(p.perceptible_fraction, 1),
                  TextTable::Percent(p.faults.availability, 2),
                  TextTable::Num(p.retransmissions), TextTable::Num(p.updates)});
    if (first_crossing == nullptr && p.crosses_threshold) {
      first_crossing = &p;
    }
  }
  Emit(table, flags.GetBool("csv"));
  // Blame view of the same grid: the share of end-to-end time each stage owns at each
  // point. As loss and flapping grow, time visibly migrates out of the service stages
  // into retransmit and the network legs.
  TextTable blame_table({"loss", "flap (ms)", "input-net", "retransmit", "sched-wait",
                         "cpu", "mem", "proto", "display-net", "decode"});
  for (const ChaosPoint& p : points) {
    std::vector<std::string> row = {TextTable::Percent(p.loss_rate, 1),
                                    TextTable::Fixed(p.flap_ms, 0)};
    for (const StageSummary& s : p.blame.stages) {
      row.push_back(TextTable::Percent(s.share, 1));
    }
    blame_table.AddRow(std::move(row));
  }
  std::printf("per-stage share of end-to-end latency:\n");
  Emit(blame_table, flags.GetBool("csv"));
  if (first_crossing != nullptr) {
    std::printf("p99 first crosses %lld ms at loss %.1f%% / flap %.0f ms "
                "(p99 %.1f ms, %.1f%% of keystrokes perceptible)\n",
                static_cast<long long>(threshold.ToMicros() / 1000),
                first_crossing->loss_rate * 100.0, first_crossing->flap_ms,
                first_crossing->p99_ms, first_crossing->perceptible_fraction * 100.0);
  } else {
    std::printf("p99 stays under %lld ms across the grid\n",
                static_cast<long long>(threshold.ToMicros() / 1000));
  }
  if (base_slo.Any()) {
    int violated = 0;
    for (const ChaosPoint& p : points) {
      violated += PrintViolation(p.slo, "at loss %.1f%% / flap %.0f ms",
                                 p.loss_rate * 100.0, p.flap_ms);
    }
    std::printf("SLO: %d of %d cells violated\n", violated, configs);
  }

  if (!WritePointsReport(flags, "chaos_sweep", points)) {
    return 1;
  }
  // stderr, so stdout stays byte-identical for any --jobs value.
  std::fprintf(stderr, "%d chaos points over %d workers\n", configs, sweep.workers());
  return 0;
}

int CmdWan(FlagSet& flags) {
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "tse"), &profile)) {
    return 2;
  }
  std::vector<std::string> names = SplitList(flags.GetString("profile", ""));
  if (names.empty()) {
    names = WanProfileNames();
  }
  // Resolve every profile up front so a typo fails fast instead of mid-sweep.
  std::vector<WanProfile> wan_profiles;
  for (const std::string& name : names) {
    wan_profiles.push_back(WanProfileByName(name));
  }

  Duration seconds = Duration::Seconds(flags.GetInt("seconds", 30));
  Duration threshold = Duration::Millis(flags.GetInt("threshold-ms", 150));
  Duration starve_after = Duration::Millis(flags.GetInt("starve-after-ms", 1000));
  int users = static_cast<int>(flags.GetInt("users", 3));
  uint64_t base_seed = Seed(flags);
  int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  int configs = static_cast<int>(wan_profiles.size()) * 2;

  // Profile-major, arm-minor: cell 2k is profile k with degradation off, cell 2k+1 the
  // same profile with degradation on. Both arms of a profile share the SAME seed, so the
  // comparison isolates the controller — identical workload, identical fault draws.
  SloSpec base_slo = SloSpecFromFlags(flags);
  ParallelSweep sweep(jobs);
  auto points = sweep.Map(configs, [&](int i) {
    int p = i / 2;
    WanOptions opt;
    opt.profile = wan_profiles[static_cast<size_t>(p)];
    opt.degrade = (i % 2) == 1;
    opt.users = users;
    opt.duration = seconds;
    opt.seed = SweepSeed(base_seed, static_cast<uint64_t>(p));
    opt.threshold = threshold;
    opt.starve_after = starve_after;
    CellSlo cell(base_slo, "wan_" + std::to_string(i) + "_seed" + std::to_string(opt.seed));
    return RunWanPoint(profile, opt, cell.obs());
  });

  TextTable table({"profile", "degrade", "worst p99 (ms)", "mean (ms)", "> threshold",
                   "availability", "worst starved", "shed", "queue drops", "updates"});
  for (const WanPoint& p : points) {
    table.AddRow({p.profile, p.degrade ? "on" : "off", TextTable::Fixed(p.worst_p99_ms, 2),
                  TextTable::Fixed(p.mean_ms, 2),
                  TextTable::Percent(p.perceptible_fraction, 1),
                  TextTable::Percent(p.availability, 2),
                  TextTable::Percent(p.worst_starved_fraction, 1),
                  TextTable::Num(static_cast<int64_t>(p.faults.frames_shed)),
                  TextTable::Num(static_cast<int64_t>(p.faults.wan_queue_drops)),
                  TextTable::Num(p.updates)});
  }
  Emit(table, flags.GetBool("csv"));
  // Blame view: under WAN pathology the share migrates into retransmit and display-net;
  // with degradation on, part of it moves to the degr-hold column (the coalesce hold is
  // billed to its own stage, appended after decode; off-arm rows leave it empty).
  TextTable blame_table({"profile", "degrade", "input-net", "retransmit", "sched-wait",
                         "cpu", "mem", "proto", "display-net", "decode", "degr-hold"});
  for (const WanPoint& p : points) {
    std::vector<std::string> row = {p.profile, p.degrade ? "on" : "off"};
    for (const StageSummary& s : p.blame.stages) {
      row.push_back(TextTable::Percent(s.share, 1));
    }
    blame_table.AddRow(std::move(row));
  }
  std::printf("per-stage share of end-to-end latency:\n");
  Emit(blame_table, flags.GetBool("csv"));

  // Degrade-on vs degrade-off, per profile: the headline comparison.
  int better_both = 0;
  for (size_t p = 0; p + 1 < points.size(); p += 2) {
    const WanPoint& off = points[p];
    const WanPoint& on = points[p + 1];
    bool p99_better = on.worst_p99_ms < off.worst_p99_ms;
    bool avail_better = on.availability > off.availability;
    if (p99_better && avail_better) {
      ++better_both;
    }
    std::printf(
        "%-16s degrade on vs off: worst p99 %.2f -> %.2f ms (%+.1f%%), availability "
        "%.2f%% -> %.2f%% (peak level %d, %lld transitions, %.1fs degraded, "
        "%lld animation frames thinned)\n",
        off.profile.c_str(), off.worst_p99_ms, on.worst_p99_ms,
        off.worst_p99_ms > 0.0
            ? (on.worst_p99_ms - off.worst_p99_ms) / off.worst_p99_ms * 100.0
            : 0.0,
        off.availability * 100.0, on.availability * 100.0, on.degradation_peak_level,
        static_cast<long long>(on.degradation_transitions), on.degraded_seconds,
        static_cast<long long>(on.animation_frames_skipped));
  }
  std::printf("degradation improves worst-user p99 AND availability on %d of %d "
              "profiles\n",
              better_both, configs / 2);
  if (base_slo.Any()) {
    int violated = 0;
    for (const WanPoint& p : points) {
      violated += PrintViolation(p.slo, "on %s (degrade %s)", p.profile.c_str(),
                                 p.degrade ? "on" : "off");
    }
    std::printf("SLO: %d of %d cells violated\n", violated, configs);
  }

  if (!WritePointsReport(flags, "wan_sweep", points)) {
    return 1;
  }
  // stderr, so stdout stays byte-identical for any --jobs value.
  std::fprintf(stderr, "%d wan points over %d workers\n", configs, sweep.workers());
  return 0;
}

bool ParseComponent(const std::string& word, WhatIfAdjustment::Component* component) {
  if (word == "link") {
    *component = WhatIfAdjustment::Component::kLink;
  } else if (word == "cpu") {
    *component = WhatIfAdjustment::Component::kCpu;
  } else if (word == "disk") {
    *component = WhatIfAdjustment::Component::kDisk;
  } else if (word == "rtt") {
    *component = WhatIfAdjustment::Component::kRtt;
  } else {
    std::fprintf(stderr, "unknown --component '%s' (link|cpu|disk|rtt|all)\n",
                 word.c_str());
    return false;
  }
  return true;
}

int CmdWhatIf(FlagSet& flags) {
  OsProfile profile;
  std::string os_word = flags.GetString("os", "tse");
  if (!ParseOs(os_word, &profile)) {
    return 2;
  }
  std::string profile_name = flags.GetString("profile", "lte");
  WanProfile wan = WanProfileByName(profile_name);
  std::string component_word = flags.GetString("component", "all");
  std::vector<std::string> words =
      component_word == "all" ? std::vector<std::string>{"link", "cpu", "disk", "rtt"}
                              : SplitList(component_word);
  std::vector<WhatIfAdjustment::Component> components;
  for (const std::string& w : words) {
    WhatIfAdjustment::Component c;
    if (!ParseComponent(w, &c)) {
      return 2;
    }
    components.push_back(c);
  }
  if (components.empty()) {
    std::fprintf(stderr, "whatif needs at least one --component\n");
    return 2;
  }

  double speedup = flags.GetDouble("speedup", 2.0);
  int64_t rtt_delta_ms = flags.GetInt("rtt-delta-ms", 40);
  WanOptions wan_opt;
  wan_opt.profile = wan;
  wan_opt.degrade = flags.GetBool("degrade");
  wan_opt.users = static_cast<int>(flags.GetInt("users", 3));
  wan_opt.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  wan_opt.seed = Seed(flags);
  int jobs = static_cast<int>(flags.GetInt("jobs", 0));

  // Every cell shares the same WAN options and seed, so every baseline arm is the SAME
  // deterministic run: the rows differ only in which component the counterfactual
  // touches, and output is byte-identical for any --jobs value.
  ParallelSweep sweep(jobs);
  auto results = sweep.Map(static_cast<int>(components.size()), [&](int i) {
    WhatIfOptions opt;
    opt.wan = wan_opt;
    opt.adjust.component = components[static_cast<size_t>(i)];
    opt.adjust.speedup = speedup;
    opt.adjust.rtt_delta_us = rtt_delta_ms * 1000;
    return RunWhatIf(profile, opt);
  });

  auto ms = [](int64_t us) { return static_cast<double>(us) / 1000.0; };
  TextTable table({"component", "counterfactual", "baseline p99 (ms)",
                   "predicted p99 (ms)", "achieved p99 (ms)", "pred delta (ms)",
                   "ach delta (ms)", "model gap (ms)"});
  for (const WhatIfResult& r : results) {
    std::string what = r.component == "rtt"
                           ? "-" + TextTable::Num(rtt_delta_ms) + " ms RTT"
                           : "x" + TextTable::Fixed(r.speedup, 2) + " " + r.component;
    table.AddRow({r.component, what, TextTable::Fixed(ms(r.baseline_p99_us), 2),
                  TextTable::Fixed(ms(r.predicted_p99_us), 2),
                  TextTable::Fixed(ms(r.achieved_p99_us), 2),
                  TextTable::Fixed(ms(r.predicted_delta_us), 2),
                  TextTable::Fixed(ms(r.achieved_delta_us), 2),
                  TextTable::Fixed(ms(r.achieved_delta_us - r.predicted_delta_us), 2)});
  }
  Emit(table, flags.GetBool("csv"));

  // The question the command exists to answer: which upgrade actually buys latency.
  int64_t mismatches = 0;
  const WhatIfResult* best = nullptr;
  for (const WhatIfResult& r : results) {
    mismatches += r.critical_path_mismatches;
    if (best == nullptr || r.achieved_delta_us > best->achieved_delta_us) {
      best = &r;
    }
  }
  std::printf("%s on %s: best achieved p99 improvement is %s (%.2f ms; model predicted "
              "%.2f ms)\n",
              os_word.c_str(), profile_name.c_str(), best->component.c_str(),
              ms(best->achieved_delta_us), ms(best->predicted_delta_us));
  std::printf("critical-path invariant: %lld mismatches over %lld baseline "
              "interactions\n",
              static_cast<long long>(mismatches),
              static_cast<long long>(results.front().interactions));

  std::string report_path = flags.GetString("report-out", "");
  if (!report_path.empty()) {
    // No run/wall_ms block anywhere in the file: byte-identical across reruns and
    // --jobs values, so CI can cmp(1) two sweeps.
    std::string report = "{\"experiment\":\"whatif\",\"os\":\"" + os_word +
                         "\",\"profile\":\"" + profile_name + "\",\"points\":[";
    for (size_t i = 0; i < results.size(); ++i) {
      const WhatIfResult& r = results[i];
      JsonObject o;
      o.Str("component", r.component);
      o.Double("speedup", r.speedup);
      o.Int("rtt_delta_us", r.rtt_delta_us);
      o.Raw("whatif", WhatIfBlockJson(r));
      o.Raw("baseline_blame", ToJson(r.baseline.blame));
      o.Raw("adjusted_blame", ToJson(r.adjusted.blame));
      if (i > 0) {
        report += ',';
      }
      report += o.Finish();
    }
    report += "]}\n";
    if (!WriteFile(report_path, report)) {
      return 1;
    }
  }
  // stderr, so stdout stays byte-identical for any --jobs value.
  std::fprintf(stderr, "%zu whatif cells over %d workers\n", results.size(),
               sweep.workers());
  return 0;
}

const char* ProtocolWord(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kRdp:
      return "rdp";
    case ProtocolKind::kX:
      return "x";
    case ProtocolKind::kLbx:
      return "lbx";
    case ProtocolKind::kSlim:
      return "slim";
    case ProtocolKind::kVnc:
      return "vnc";
  }
  return "?";
}

// Largest total-time stage; ties go to the earlier pipeline stage.
const StageSummary* DominantStage(const AttributionResult& blame) {
  const StageSummary* best = nullptr;
  for (const StageSummary& s : blame.stages) {
    if (best == nullptr || s.total_us > best->total_us) {
      best = &s;
    }
  }
  return best;
}

// One `--os` list entry of blame/capacity: `name` or `name:protocol`. The suffix
// overrides the profile's display protocol, so the same OS pipeline can be compared
// across encodings (e.g. linux vs linux:lbx).
struct OsConfig {
  OsProfile profile;
  std::string os_word;
  std::string proto_word;
};

bool ParseOsConfigs(const std::string& list, std::vector<OsConfig>* out) {
  for (const std::string& token : SplitList(list)) {
    OsConfig cfg;
    size_t colon = token.find(':');
    cfg.os_word = token.substr(0, colon);
    if (!ParseOs(cfg.os_word, &cfg.profile)) {
      return false;
    }
    if (colon != std::string::npos &&
        !ParseProtocol(token.substr(colon + 1), &cfg.profile.protocol_kind)) {
      return false;
    }
    cfg.proto_word = ProtocolWord(cfg.profile.protocol_kind);
    out->push_back(std::move(cfg));
  }
  return true;
}

int CmdBlame(FlagSet& flags) {
  std::vector<OsConfig> base;
  if (!ParseOsConfigs(flags.GetString("os", "tse,linux,linux:lbx"), &base)) {
    return 2;
  }
  std::vector<int> sink_list;
  if (!ParseIntList(flags.GetString("sinks", "0,5"), "sinks", &sink_list)) {
    return 2;
  }
  if (base.empty() || sink_list.empty()) {
    std::fprintf(stderr, "blame needs at least one --os and one --sinks value\n");
    return 2;
  }

  // With --profile the whole grid runs behind that WAN pathology and the display-net
  // stage is decomposed into its five sub-stages (second table below).
  std::string wan_name = flags.GetString("profile", "");
  WanProfile wan = wan_name.empty() ? WanProfile{} : WanProfileByName(wan_name);

  Duration seconds = Duration::Seconds(flags.GetInt("seconds", 30));
  Duration threshold = Duration::Millis(flags.GetInt("threshold-ms", 100));
  double background_mbps = flags.GetDouble("background-mbps", 0.0);
  double loss = flags.GetDouble("loss", 0.0);
  int flap = static_cast<int>(flags.GetInt("flap-ms", 0));
  uint64_t base_seed = Seed(flags);
  int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  int sink_count = static_cast<int>(sink_list.size());
  int configs = static_cast<int>(base.size()) * sink_count;

  // OS-major, sinks-minor, each config with a position-derived seed and its own
  // attribution engine: output is byte-identical for any --jobs value.
  ParallelSweep sweep(jobs);
  auto results = sweep.Map(configs, [&](int i) {
    const OsConfig& cfg = base[static_cast<size_t>(i / sink_count)];
    EndToEndOptions opt;
    opt.sinks = sink_list[static_cast<size_t>(i % sink_count)];
    opt.background_mbps = background_mbps;
    opt.duration = seconds;
    opt.seed = SweepSeed(base_seed, static_cast<uint64_t>(i));
    if (loss > 0.0) {
      opt.faults.link.loss_rate = loss;
    }
    if (flap > 0) {
      opt.faults.link.flap_every = Duration::Millis(2000);
      opt.faults.link.flap_duration = Duration::Millis(flap);
    }
    if (!wan_name.empty()) {
      opt.faults.link.wan = wan;
      opt.faults.seed = opt.seed ^ 0xFA017u;
    }
    AttributionConfig attr_cfg;
    attr_cfg.decompose_network = !wan_name.empty();
    LatencyAttribution attribution(attr_cfg);
    ObsConfig obs;
    obs.attribution = &attribution;
    return RunEndToEndLatency(cfg.profile, opt, &obs);
  });

  TextTable table({"os", "protocol", "sinks", "stage", "share", "p50 (ms)", "p99 (ms)",
                   "max (ms)"});
  for (int i = 0; i < configs; ++i) {
    const OsConfig& cfg = base[static_cast<size_t>(i / sink_count)];
    int sinks = sink_list[static_cast<size_t>(i % sink_count)];
    for (const StageSummary& s : results[static_cast<size_t>(i)].blame.stages) {
      if (s.total_us == 0) {
        continue;  // this stage never saw time in this configuration
      }
      table.AddRow({cfg.os_word, cfg.proto_word, TextTable::Num(sinks), s.stage,
                    TextTable::Percent(s.share, 1),
                    TextTable::Fixed(static_cast<double>(s.p50_us) / 1000.0, 2),
                    TextTable::Fixed(static_cast<double>(s.p99_us) / 1000.0, 2),
                    TextTable::Fixed(static_cast<double>(s.max_us) / 1000.0, 2)});
    }
  }
  Emit(table, flags.GetBool("csv"));

  if (!wan_name.empty()) {
    // WAN-aware blame: where inside the wire the display-net microseconds went. The
    // shares are over the network grand total; the sub-stage sums equal the display-net
    // stage total exactly (net_mismatches counts any commit that violated this — 0).
    TextTable net_table({"os", "protocol", "sinks", "net stage", "share", "p50 (ms)",
                         "p99 (ms)", "max (ms)"});
    int64_t net_mismatches = 0;
    for (int i = 0; i < configs; ++i) {
      const OsConfig& cfg = base[static_cast<size_t>(i / sink_count)];
      int sinks = sink_list[static_cast<size_t>(i % sink_count)];
      const AttributionResult& blame = results[static_cast<size_t>(i)].blame;
      net_mismatches += blame.net_mismatches;
      for (const StageSummary& s : blame.net_stages) {
        if (s.total_us == 0) {
          continue;
        }
        net_table.AddRow({cfg.os_word, cfg.proto_word, TextTable::Num(sinks), s.stage,
                          TextTable::Percent(s.share, 1),
                          TextTable::Fixed(static_cast<double>(s.p50_us) / 1000.0, 2),
                          TextTable::Fixed(static_cast<double>(s.p99_us) / 1000.0, 2),
                          TextTable::Fixed(static_cast<double>(s.max_us) / 1000.0, 2)});
      }
    }
    std::printf("display-net decomposition under the %s profile (%lld decomposition "
                "mismatches):\n",
                wan_name.c_str(), static_cast<long long>(net_mismatches));
    Emit(net_table, flags.GetBool("csv"));
  }

  // The question the command exists to answer: which configuration goes perceptible
  // first, and which resource is to blame when it does.
  int64_t threshold_us = threshold.ToMicros();
  int first = -1;
  for (int i = 0; i < configs; ++i) {
    const OsConfig& cfg = base[static_cast<size_t>(i / sink_count)];
    const AttributionResult& blame = results[static_cast<size_t>(i)].blame;
    const StageSummary* top = DominantStage(blame);
    bool over = blame.p99_total_us > threshold_us;
    std::printf("%s/%s, %d sinks: p99 %.2f ms (%s %lld ms); dominant stage %s (%.0f%%)\n",
                cfg.os_word.c_str(), cfg.proto_word.c_str(),
                sink_list[static_cast<size_t>(i % sink_count)],
                static_cast<double>(blame.p99_total_us) / 1000.0,
                over ? "crosses" : "under", static_cast<long long>(threshold_us / 1000),
                top != nullptr ? top->stage.c_str() : "?",
                top != nullptr ? top->share * 100.0 : 0.0);
    if (over && first < 0) {
      first = i;
    }
  }
  if (first >= 0) {
    const OsConfig& cfg = base[static_cast<size_t>(first / sink_count)];
    const AttributionResult& blame = results[static_cast<size_t>(first)].blame;
    const StageSummary* top = DominantStage(blame);
    std::printf("p99 first crosses %lld ms at %s/%s with %d sinks — blame %s\n",
                static_cast<long long>(threshold_us / 1000), cfg.os_word.c_str(),
                cfg.proto_word.c_str(),
                sink_list[static_cast<size_t>(first % sink_count)],
                top != nullptr ? top->stage.c_str() : "?");
  } else {
    std::printf("p99 stays under %lld ms across the grid\n",
                static_cast<long long>(threshold_us / 1000));
  }

  std::string report_path = flags.GetString("report-out", "");
  if (!report_path.empty()) {
    // No run/wall_ms block anywhere in the file: byte-identical across reruns and
    // --jobs values, so CI can cmp(1) two sweeps.
    std::string report = "{\"experiment\":\"blame\",\"points\":[";
    for (int i = 0; i < configs; ++i) {
      if (i > 0) {
        report += ',';
      }
      const OsConfig& cfg = base[static_cast<size_t>(i / sink_count)];
      report += "{\"os\":\"" + cfg.os_word + "\",\"protocol\":\"" + cfg.proto_word +
                "\",\"sinks\":" +
                std::to_string(sink_list[static_cast<size_t>(i % sink_count)]) +
                ",\"blame\":" + ToJson(results[static_cast<size_t>(i)].blame) + "}";
    }
    report += "]}\n";
    if (!WriteFile(report_path, report)) {
      return 1;
    }
  }
  // stderr, so stdout stays byte-identical for any --jobs value.
  std::fprintf(stderr, "%d blame configs over %d workers\n", configs, sweep.workers());
  return 0;
}

// The evaluation the search settled on for `users`, if that candidate was probed.
const ConsolidationResult* FindProbe(const CapacityResult& r, int users) {
  for (const ConsolidationResult& probe : r.probes) {
    if (probe.users == users) {
      return &probe;
    }
  }
  return nullptr;
}

int CmdCapacity(FlagSet& flags) {
  std::vector<OsConfig> base;
  if (!ParseOsConfigs(flags.GetString("os", "tse,linux"), &base)) {
    return 2;
  }
  if (base.empty()) {
    std::fprintf(stderr, "capacity needs at least one --os entry\n");
    return 2;
  }

  CapacityOptions proto_options;
  proto_options.max_users = static_cast<int>(flags.GetInt("max-users", 16));
  proto_options.admission.max_utilization = flags.GetDouble("max-util", 0.85);
  proto_options.admission.max_p99_stall =
      Duration::Millis(flags.GetInt("max-p99-ms", 100));
  proto_options.behavior.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  proto_options.behavior.sinks = static_cast<int>(flags.GetInt("sinks", 0));
  proto_options.behavior.burst_cpu = Duration::Millis(flags.GetInt("burst-ms", 300));
  proto_options.behavior.burst_period =
      Duration::Millis(flags.GetInt("burst-every-ms", 5000));
  proto_options.behavior.ram = Bytes::MiB(flags.GetInt("ram-mib", 64));
  uint64_t base_seed = Seed(flags);
  int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  int configs = static_cast<int>(base.size());

  // The sweep parallelizes across configurations only; each configuration's binary
  // search is sequential and memoized, with every candidate run on the same
  // position-derived seed. Output is byte-identical for any --jobs value. With --slo-*
  // flags every probe is watched; bundle stems carry the configuration and candidate N.
  SloSpec base_slo = SloSpecFromFlags(flags);
  ParallelSweep sweep(jobs);
  std::vector<CapacityResult> results;
  try {
    results = sweep.Map(configs, [&](int i) {
      CapacityOptions options = proto_options;
      options.behavior.seed = SweepSeed(base_seed, static_cast<uint64_t>(i));
      const OsConfig& cfg = base[static_cast<size_t>(i)];
      CellSlo cell(base_slo, "capacity_" + cfg.os_word + "_" + cfg.proto_word);
      return RunServerCapacity(cfg.profile, options, cell.obs());
    });
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "bad capacity configuration — %s\n", e.what());
    return 2;
  }

  TextTable table({"os", "protocol", "latency-sized", "util-sized", "over-admits",
                   "p99 @ util (ms)", "CPU @ util", "resident @ latency"});
  for (int i = 0; i < configs; ++i) {
    const OsConfig& cfg = base[static_cast<size_t>(i)];
    const CapacityResult& r = results[static_cast<size_t>(i)];
    const ConsolidationResult* at_util = FindProbe(r, r.utilization_sized_users);
    const ConsolidationResult* at_latency = FindProbe(r, r.latency_sized_users);
    table.AddRow(
        {cfg.os_word, cfg.proto_word, TextTable::Num(r.latency_sized_users),
         TextTable::Num(r.utilization_sized_users),
         r.utilization_over_admits ? "yes" : "no",
         at_util != nullptr ? TextTable::Fixed(at_util->worst_p99_stall_ms, 1) : "-",
         at_util != nullptr ? TextTable::Percent(at_util->cpu_utilization, 1) : "-",
         at_latency != nullptr
             ? TextTable::Num(static_cast<int64_t>(at_latency->resident_pages)) + "/" +
                   TextTable::Num(static_cast<int64_t>(at_latency->total_frames))
             : "-"});
  }
  Emit(table, flags.GetBool("csv"));
  for (int i = 0; i < configs; ++i) {
    const OsConfig& cfg = base[static_cast<size_t>(i)];
    const CapacityResult& r = results[static_cast<size_t>(i)];
    if (!r.utilization_over_admits) {
      continue;
    }
    const ConsolidationResult* at_util = FindProbe(r, r.utilization_sized_users);
    std::printf("%s/%s: utilization sizing (< %.0f%% CPU) admits %d users, but the "
                "worst user's p99 stall there is %.1f ms — latency sizing stops at %d\n",
                cfg.os_word.c_str(), cfg.proto_word.c_str(),
                proto_options.admission.max_utilization * 100.0,
                r.utilization_sized_users,
                at_util != nullptr ? at_util->worst_p99_stall_ms : 0.0,
                r.latency_sized_users);
  }

  if (base_slo.Any()) {
    int violated = 0;
    for (int i = 0; i < configs; ++i) {
      for (const ConsolidationResult& probe : results[static_cast<size_t>(i)].probes) {
        violated += PrintViolation(probe.slo, "at %s/%s with %d users",
                                   base[static_cast<size_t>(i)].os_word.c_str(),
                                   base[static_cast<size_t>(i)].proto_word.c_str(),
                                   probe.users);
      }
    }
    std::printf("SLO: %d probes violated\n", violated);
  }

  if (!WritePointsReport(flags, "capacity_sweep", results)) {
    return 1;
  }
  // stderr, so stdout stays byte-identical for any --jobs value.
  std::fprintf(stderr, "%d capacity configs over %d workers\n", configs, sweep.workers());
  return 0;
}

// --rewind-ms: run the consolidation under a periodic checkpoint ring and, when the
// SLO trips, fork a replay from the newest checkpoint at least that many virtual
// milliseconds before the violation — this time with the full tracer attached. The
// checkpointing and the fork are invisible to the model (tracing is passive: no
// events, no RNG), so the replay hits the violation at the exact same virtual
// instant, and the traced lead-up shows what the always-on flight recorder's short
// frozen window could not.
int RunConsolidationRewind(const OsProfile& profile, const ConsolidationOptions& opt,
                           SloSpec spec, FlagSet& flags, SloReport* out_slo) {
  int64_t rewind_ms = flags.GetInt("rewind-ms", 0);
  int64_t every_ms = flags.GetInt("checkpoint-every-ms", 250);
  if (every_ms <= 0) {
    std::fprintf(stderr, "--checkpoint-every-ms must be positive\n");
    return 2;
  }
  ObsConfig obs;
  obs.slo = &spec;
  ConsolidationRun monitored(profile, opt, &obs);

  std::vector<std::pair<TimePoint, std::vector<uint8_t>>> ring;
  TimePoint end = monitored.end_time();
  for (TimePoint t = TimePoint::Zero() + Duration::Millis(every_ms);
       t < end && !monitored.SloViolated(); t = t + Duration::Millis(every_ms)) {
    monitored.RunUntil(t);
    if (!monitored.SloViolated()) {
      ring.emplace_back(t, monitored.Snapshot());
    }
  }
  monitored.RunToEnd();
  bool violated = monitored.SloViolated();
  int64_t violated_at_us = monitored.SloViolatedAtUs();
  ConsolidationResult r = monitored.Finish();
  std::printf("consolidation on %s with %d users: worst p99 stall %.1f ms, CPU %.1f%%\n",
              r.os_name.c_str(), r.users, r.worst_p99_stall_ms,
              r.cpu_utilization * 100.0);
  *out_slo = std::move(r.slo);

  if (!violated) {
    std::printf("rewind: SLO held for the whole run; nothing to replay\n");
    return 0;
  }
  const std::vector<uint8_t>* chosen = nullptr;
  TimePoint chosen_at = TimePoint::Zero();
  for (const auto& [t, blob] : ring) {
    if (t.ToMicros() <= violated_at_us - rewind_ms * 1000) {
      chosen = &blob;
      chosen_at = t;
    }
  }
  if (chosen == nullptr) {
    std::fprintf(stderr,
                 "rewind: violation at %.1f ms (virtual) predates every checkpoint "
                 "minus --rewind-ms=%lld; lower --checkpoint-every-ms\n",
                 static_cast<double>(violated_at_us) / 1000.0,
                 static_cast<long long>(rewind_ms));
    return 1;
  }

  TracerConfig tracer_cfg;
  Tracer tracer(tracer_cfg);
  SloSpec replay_spec = spec;
  replay_spec.name += "_replay";  // the replay's own forensic bundle, distinct files
  ObsConfig replay_obs;
  replay_obs.slo = &replay_spec;
  replay_obs.tracer = &tracer;
  ConsolidationRun replay(profile, opt, &replay_obs);
  replay.Restore(*chosen);
  replay.RunToEnd();
  ConsolidationResult rr = replay.Finish();
  if (rr.slo.violated_at_us != violated_at_us) {
    std::fprintf(stderr,
                 "rewind: replay diverged from the monitored run (violation at %lld us "
                 "vs %lld us) — determinism bug, please report\n",
                 static_cast<long long>(rr.slo.violated_at_us),
                 static_cast<long long>(violated_at_us));
    return 1;
  }
  std::string trace_path = flags.GetString(
      "rewind-out", spec.out_dir.empty()
                        ? spec.name + ".rewind.trace.json"
                        : spec.out_dir + "/" + spec.name + ".rewind.trace.json");
  if (!WriteFile(trace_path, tracer.ToJson())) {
    std::fprintf(stderr, "rewind: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf(
      "rewind: forked from the %.0f ms checkpoint (%zu in ring), replay reproduced "
      "the violation at %.3f ms (virtual); traced lead-up: %s\n",
      chosen_at.ToMicros() / 1000.0, ring.size(),
      static_cast<double>(violated_at_us) / 1000.0, trace_path.c_str());
  return 0;
}

int CmdPostmortem(FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "postmortem needs an experiment (typing|e2e|chaos|consolidation)\n");
    return 2;
  }
  std::string experiment = flags.positional()[1];
  if (experiment == "typing_under_load") {
    experiment = "typing";
  } else if (experiment == "end_to_end" || experiment == "end_to_end_latency") {
    experiment = "e2e";
  } else if (experiment == "chaos_point") {
    experiment = "chaos";
  }
  OsProfile profile;
  if (!ParseOs(flags.GetString("os", "tse"), &profile)) {
    return 2;
  }

  // Tight defaults: a p99 budget at the perception threshold and near-perfect
  // availability, so the command catches real degradation out of the box. Explicit
  // --slo-* flags override.
  SloSpec spec = SloSpecFromFlags(flags);
  if (!spec.Any()) {
    spec.max_worst_p99_ms = flags.GetDouble("slo-p99-ms", 100.0);
    spec.min_availability = flags.GetDouble("slo-availability", 0.99);
  }
  spec.name = experiment;
  ObsConfig obs;
  obs.slo = &spec;

  uint64_t seed = Seed(flags);
  Duration seconds = Duration::Seconds(flags.GetInt("seconds", 30));
  SloReport slo;
  if (experiment == "typing") {
    TypingUnderLoadResult r = RunTypingUnderLoad(
        profile, static_cast<int>(flags.GetInt("sinks", 2)), seconds, seed,
        static_cast<int>(flags.GetInt("cpus", 1)), &obs);
    std::printf("typing on %s: avg stall %.1f ms, max %.1f ms\n", r.os_name.c_str(),
                r.avg_stall_ms, r.max_stall_ms);
    slo = std::move(r.slo);
  } else if (experiment == "e2e") {
    EndToEndOptions opt;
    if (!EndToEndFromFlags(flags, &opt)) {
      return 2;
    }
    EndToEndResult r = RunEndToEndLatency(profile, opt, &obs);
    std::printf("e2e on %s: total %.2f ms over %lld updates\n", r.os_name.c_str(),
                r.total_ms, static_cast<long long>(r.updates));
    slo = std::move(r.slo);
  } else if (experiment == "chaos") {
    ChaosOptions opt = ChaosFromFlags(flags);
    opt.loss_rate = flags.GetDouble("loss", 0.05);
    int flap = static_cast<int>(flags.GetInt("flap-ms", 0));
    if (flap > 0) {
      opt.flap_duration = Duration::Millis(flap);
    }
    ChaosPoint r = RunChaosPoint(profile, opt, &obs);
    std::printf("chaos on %s (loss %.1f%%, flap %.0f ms): p50 %.2f ms, p99 %.2f ms, "
                "availability %.3f\n",
                r.os_name.c_str(), r.loss_rate * 100.0, r.flap_ms, r.p50_ms, r.p99_ms,
                r.faults.availability);
    slo = std::move(r.slo);
  } else if (experiment == "consolidation") {
    ConsolidationOptions opt;
    opt.users = static_cast<int>(flags.GetInt("users", 8));
    opt.duration = seconds;
    opt.seed = seed;
    opt.sinks = static_cast<int>(flags.GetInt("sinks", 0));
    opt.burst_cpu = Duration::Millis(flags.GetInt("burst-ms", 300));
    opt.burst_period = Duration::Millis(flags.GetInt("burst-every-ms", 5000));
    opt.ram = Bytes::MiB(flags.GetInt("ram-mib", 64));
    if (flags.GetInt("rewind-ms", 0) > 0) {
      int rc;
      try {
        rc = RunConsolidationRewind(profile, opt, spec, flags, &slo);
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "bad consolidation configuration — %s\n", e.what());
        return 2;
      }
      if (rc != 0) {
        return rc;
      }
    } else {
      ConsolidationResult r;
      try {
        r = RunConsolidation(profile, opt, &obs);
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "bad consolidation configuration — %s\n", e.what());
        return 2;
      }
      std::printf("consolidation on %s with %d users: worst p99 stall %.1f ms, CPU %.1f%%\n",
                  r.os_name.c_str(), r.users, r.worst_p99_stall_ms,
                  r.cpu_utilization * 100.0);
      slo = std::move(r.slo);
    }
  } else {
    std::fprintf(stderr, "unknown experiment '%s' (typing|e2e|chaos|consolidation)\n",
                 experiment.c_str());
    return 2;
  }

  PrintSloReport(slo, "");
  std::printf("SLO %s\n", slo.passed ? "PASSED" : "FAILED");
  return 0;
}

bool ParseCategories(const std::string& list, uint32_t* mask) {
  uint32_t out = 0;
  for (const std::string& word : SplitList(list)) {
    if (word == "all") {
      out |= kAllTraceCategories;
    } else if (word == "sim") {
      out |= static_cast<uint32_t>(TraceCategory::kSim);
    } else if (word == "cpu") {
      out |= static_cast<uint32_t>(TraceCategory::kCpu);
    } else if (word == "sched") {
      out |= static_cast<uint32_t>(TraceCategory::kSched);
    } else if (word == "mem") {
      out |= static_cast<uint32_t>(TraceCategory::kMem);
    } else if (word == "net") {
      out |= static_cast<uint32_t>(TraceCategory::kNet);
    } else if (word == "proto") {
      out |= static_cast<uint32_t>(TraceCategory::kProto);
    } else if (word == "session") {
      out |= static_cast<uint32_t>(TraceCategory::kSession);
    } else if (word == "fault") {
      out |= static_cast<uint32_t>(TraceCategory::kFault);
    } else if (word == "blame") {
      out |= static_cast<uint32_t>(TraceCategory::kBlame);
    } else {
      std::fprintf(stderr,
                   "unknown --categories entry '%s' "
                   "(sim|cpu|sched|mem|net|proto|session|fault|blame|all)\n",
                   word.c_str());
      return false;
    }
  }
  *mask = out;
  return true;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << contents;
  return true;
}

int CmdTrace(FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "trace needs an experiment (typing|paging|e2e|sizing|traffic|gif)\n");
    return 2;
  }
  std::string experiment = flags.positional()[1];
  // Long-form aliases so docs can use the descriptive names.
  if (experiment == "typing_under_load") {
    experiment = "typing";
  } else if (experiment == "paging_latency") {
    experiment = "paging";
  } else if (experiment == "end_to_end" || experiment == "end_to_end_latency") {
    experiment = "e2e";
  } else if (experiment == "server_sizing") {
    experiment = "sizing";
  } else if (experiment == "app_workload_traffic") {
    experiment = "traffic";
  } else if (experiment == "gif_animation") {
    experiment = "gif";
  }

  TracerConfig tracer_cfg;
  std::string categories = flags.GetString("categories", "");
  if (!categories.empty() && !ParseCategories(categories, &tracer_cfg.categories)) {
    return 2;
  }
  Tracer tracer(tracer_cfg);
  MetricsRegistry metrics;
  std::string sampler_csv;
  ObsConfig obs;
  obs.tracer = &tracer;
  obs.metrics = &metrics;
  obs.sampler_csv = &sampler_csv;
  // Server experiments also attribute: their reports carry the blame block and the trace
  // carries per-interaction flow spans across the blame tracks. Protocol-only
  // experiments (traffic, gif) have no keystroke pipeline, so no engine (and no empty
  // blame tracks) for them.
  std::unique_ptr<LatencyAttribution> attribution;
  bool server_experiment = experiment == "typing" || experiment == "paging" ||
                           experiment == "e2e" || experiment == "sizing";
  OsProfile profile;
  if (server_experiment &&
      !ParseOs(flags.GetString("os", experiment == "paging" ? "linux" : "tse"), &profile)) {
    return 2;
  }
  if (server_experiment) {
    AttributionConfig attr_cfg;
    attr_cfg.tracer = &tracer;
    attribution = std::make_unique<LatencyAttribution>(attr_cfg);
    obs.attribution = attribution.get();
  }

  uint64_t seed = Seed(flags);
  Duration seconds = Duration::Seconds(flags.GetInt("seconds", 30));
  std::string report;
  if (experiment == "typing") {
    TypingUnderLoadResult r = RunTypingUnderLoad(
        profile, static_cast<int>(flags.GetInt("sinks", 2)), seconds, seed,
        static_cast<int>(flags.GetInt("cpus", 1)), &obs);
    report = ToJson(r);
  } else if (experiment == "paging") {
    EvictionPolicy policy = flags.GetBool("protect") ? EvictionPolicy::kInteractiveProtect
                                                     : EvictionPolicy::kGlobalLru;
    PagingLatencyResult r =
        RunPagingLatency(profile, flags.GetBool("full-demand", true),
                         static_cast<int>(flags.GetInt("runs", 3)), seed, policy, &obs);
    report = ToJson(r);
  } else if (experiment == "e2e") {
    EndToEndOptions opt;
    if (!EndToEndFromFlags(flags, &opt)) {
      return 2;
    }
    EndToEndResult r = RunEndToEndLatency(profile, opt, &obs);
    report = ToJson(r);
  } else if (experiment == "sizing") {
    SizingPoint r = RunServerSizing(profile, static_cast<int>(flags.GetInt("users", 10)),
                                    seconds, seed, &obs);
    report = ToJson(r);
  } else if (experiment == "traffic") {
    ProtocolKind kind;
    if (!ParseProtocol(flags.GetString("protocol", "rdp"), &kind)) {
      return 2;
    }
    ProtocolTrafficResult r = RunAppWorkloadTraffic(
        kind, seed, static_cast<int>(flags.GetInt("steps", 600)), &obs);
    report = ToJson(r);
  } else if (experiment == "gif") {
    ProtocolKind kind;
    if (!ParseProtocol(flags.GetString("protocol", "rdp"), &kind)) {
      return 2;
    }
    GifAnimationOptions opt;
    opt.frames = static_cast<int>(flags.GetInt("frames", 10));
    opt.duration = Duration::Seconds(flags.GetInt("seconds", 20));
    opt.seed = seed;
    if (flags.GetBool("loop-aware")) {
      opt.cache_policy = CachePolicy::kLoopAware;
    }
    AnimationLoadResult r = RunGifAnimation(kind, opt, &obs);
    report = ToJson(r);
  } else {
    std::fprintf(stderr, "unknown experiment '%s' (typing|paging|e2e|sizing|traffic|gif)\n",
                 experiment.c_str());
    return 2;
  }

  std::string trace_path = flags.GetString("out", "trace.json");
  std::string metrics_path = flags.GetString("metrics-out", "metrics.csv");
  std::string report_path = flags.GetString("report-out", "report.json");
  if (!WriteFile(trace_path, tracer.ToJson()) || !WriteFile(metrics_path, sampler_csv) ||
      !WriteFile(report_path, report + "\n")) {
    return 1;
  }
  std::printf("%s: %zu trace events on %zu tracks -> %s; gauges -> %s; report -> %s\n",
              experiment.c_str(), tracer.event_count(), tracer.track_count(),
              trace_path.c_str(), metrics_path.c_str(), report_path.c_str());
  return 0;
}

int CmdReplay(FlagSet& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "replay needs a trace file\n");
    return 2;
  }
  ProtocolKind kind;
  if (!ParseProtocol(flags.GetString("protocol", "rdp"), &kind)) {
    return 2;
  }
  std::ifstream in(flags.positional()[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", flags.positional()[1].c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  auto script = ParseScript(buffer.str(), &error);
  if (!script) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 2;
  }
  // Replay through the protocol-only harness used by the traffic experiments.
  Simulator sim;
  Link link(sim);
  MessageSender display(link, HeaderModel::TcpIp());
  MessageSender input(link, HeaderModel::TcpIp());
  ProtoTap tap(Duration::Seconds(1));
  Rng rng(1);
  std::unique_ptr<DisplayProtocol> protocol;
  switch (kind) {
    case ProtocolKind::kRdp:
      protocol = std::make_unique<RdpProtocol>(sim, display, input, &tap, rng);
      break;
    case ProtocolKind::kX:
      protocol = std::make_unique<XProtocol>(sim, display, input, &tap, rng);
      break;
    case ProtocolKind::kLbx:
      protocol = std::make_unique<LbxProtocol>(sim, display, input, &tap, rng);
      break;
    case ProtocolKind::kSlim:
      protocol = std::make_unique<SlimProtocol>(sim, display, input, &tap, rng);
      break;
    case ProtocolKind::kVnc: {
      auto vnc = std::make_unique<VncProtocol>(sim, display, input, &tap, rng);
      vnc->StartClientPull();
      protocol = std::move(vnc);
      break;
    }
  }
  script->Replay(sim, *protocol);
  sim.RunUntil(TimePoint::Zero() + script->TotalDuration());
  if (auto* vnc = dynamic_cast<VncProtocol*>(protocol.get())) {
    vnc->StopClientPull();
  }
  protocol->Flush();
  sim.Run();
  std::printf("replayed '%s' (%zu steps, %s of user time) over %s:\n",
              script->name().c_str(), script->steps().size(),
              script->TotalDuration().ToString().c_str(), protocol->name().c_str());
  std::printf("  display: %lld msgs, %lld bytes;  input: %lld msgs, %lld bytes\n",
              static_cast<long long>(tap.messages(Channel::kDisplay)),
              static_cast<long long>(tap.counted_bytes(Channel::kDisplay).count()),
              static_cast<long long>(tap.messages(Channel::kInput)),
              static_cast<long long>(tap.counted_bytes(Channel::kInput).count()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  FlagSet flags(argc, argv,
                {"os", "seconds", "sinks", "cpus", "full-demand", "runs", "protect",
                 "protocol", "steps", "no-banner", "no-marquee", "frames", "loop-aware",
                 "mbps", "users", "background-mbps", "client", "csv", "experiment",
                 "jobs", "seed", "out", "metrics-out", "report-out", "categories",
                 "loss", "flap-ms", "flap-every-ms", "disk-stall", "disconnect-ms",
                 "threshold-ms", "max-users", "max-util", "max-p99-ms", "burst-ms",
                 "burst-every-ms", "ram-mib", "profile", "starve-after-ms",
                 "component", "speedup", "rtt-delta-ms", "degrade",
                 "slo-p99-ms", "slo-availability", "slo-backlog-kb", "slo-starved",
                 "postmortem-dir", "rewind-ms", "checkpoint-every-ms", "rewind-out"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (command == "idle") {
    return CmdIdle(flags);
  }
  if (command == "typing") {
    return CmdTyping(flags);
  }
  if (command == "paging") {
    return CmdPaging(flags);
  }
  if (command == "traffic") {
    return CmdTraffic(flags);
  }
  if (command == "webpage") {
    return CmdWebpage(flags);
  }
  if (command == "gif") {
    return CmdGif(flags);
  }
  if (command == "rtt") {
    return CmdRtt(flags);
  }
  if (command == "sizing") {
    return CmdSizing(flags);
  }
  if (command == "capacity") {
    return CmdCapacity(flags);
  }
  if (command == "e2e") {
    return CmdE2e(flags);
  }
  if (command == "sweep") {
    return CmdSweep(flags);
  }
  if (command == "chaos") {
    return CmdChaos(flags);
  }
  if (command == "wan") {
    return CmdWan(flags);
  }
  if (command == "whatif") {
    return CmdWhatIf(flags);
  }
  if (command == "blame") {
    return CmdBlame(flags);
  }
  if (command == "postmortem") {
    return CmdPostmortem(flags);
  }
  if (command == "trace") {
    return CmdTrace(flags);
  }
  if (command == "replay") {
    return CmdReplay(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace tcs

int main(int argc, char** argv) {
  try {
    return tcs::Run(argc, argv);
  } catch (const tcs::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
