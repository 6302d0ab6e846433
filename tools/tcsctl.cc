// tcsctl — command-line driver for the tcs thin-client latency framework.
//
//   tcsctl <command> [arguments] [--flag=value ...]
//
// Every command is one row of kCommands at the bottom of this file: its name, a reader,
// and the usage line `tcsctl help` prints. The reader takes every flag the command uses
// from the FlagSet and returns the run. Main() checks the flags between the two, so a
// flag the command does not read, or a value it cannot use, exits 2 before anything is
// simulated; the accepted flags are exactly the ones the reader asked for.
//
// The sweeps (sweep, chaos, wan, whatif, blame, capacity) run their grid through one
// runner (tools/grid.h) on a worker pool (--jobs, default: all cores). Each cell's seed
// derives from --seed and its position in the grid, so stdout and --report-out files
// are byte-identical for any --jobs value; the "N configs over M workers" footers go to
// stderr for the same reason. sweep (typing, e2e), chaos, wan and capacity also take the
// --slo-* flags: each cell then runs under its own SloWatchdog, and violating cells
// leave forensic bundles under --postmortem-dir even though the sweep itself runs
// trace-off.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/admission.h"
#include "src/core/experiments.h"
#include "src/core/parallel_sweep.h"
#include "src/core/report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proto/protocol_pipeline.h"
#include "src/session/server.h"
#include "src/util/config_error.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/workload/script_io.h"
#include "tools/grid.h"
#include "tools/paper.h"

namespace tcs {
namespace {

// What a command's reader returns: the run, which prints and returns the exit code.
using Runner = std::function<int()>;
// One experiment the flags describe, run under the caller's observability.
template <typename Result>
using Experiment = std::function<Result(const ObsConfig*)>;

OsProfile ParseOs(FlagSet& flags, const std::string& word) {
  if (word == "tse") {
    return OsProfile::Tse();
  }
  if (word == "linux") {
    return OsProfile::LinuxX();
  }
  if (word == "ntws") {
    return OsProfile::NtWorkstation();
  }
  if (word == "svr4") {
    return OsProfile::LinuxSvr4();
  }
  flags.Fail("unknown --os '" + word + "' (tse|linux|ntws|svr4)");
  return OsProfile();
}

ProtocolKind ParseProtocol(FlagSet& flags, const std::string& word) {
  if (std::optional<ProtocolKind> kind = ProtocolFromWord(word)) {
    return *kind;
  }
  flags.Fail("unknown --protocol '" + word + "' (rdp|x|lbx|slim|vnc)");
  return ProtocolKind::kRdp;
}

uint64_t Seed(FlagSet& flags) { return static_cast<uint64_t>(flags.GetInt("seed", 1)); }

void Emit(const TextTable& table, bool csv) {
  std::printf("%s", csv ? table.RenderCsv().c_str() : table.Render().c_str());
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

// A comma-separated list flag of ints or doubles.
template <typename T>
std::vector<T> ReadList(FlagSet& flags, const char* name, const char* fallback) {
  std::vector<T> out;
  for (const std::string& token : SplitList(flags.GetString(name, fallback))) {
    try {
      if constexpr (std::is_same_v<T, int>) {
        out.push_back(std::stoi(token));
      } else {
        out.push_back(std::stod(token));
      }
    } catch (...) {
      flags.Fail(std::string("bad --") + name + " entry '" + token + "'");
    }
  }
  return out;
}

// An integer flag that must be at least `min`; a smaller value fails the flag check.
int64_t IntAtLeast(FlagSet& flags, const char* name, int64_t fallback, int64_t min) {
  int64_t value = flags.GetInt(name, fallback);
  if (value < min) {
    flags.Fail(std::string("--") + name + " must be at least " + std::to_string(min));
  }
  return value;
}

// A number flag that cannot be negative (a rate or a load, where 0 means none).
double NonNegative(FlagSet& flags, const char* name, double fallback) {
  double value = flags.GetDouble(name, fallback);
  if (!(value >= 0.0)) {
    flags.Fail(std::string("--") + name + " cannot be negative");
  }
  return value;
}

// A fraction flag that must lie in [0, 1] when given; `off` (which may lie outside,
// switching an objective off) when it is not.
double Fraction(FlagSet& flags, const char* name, double off) {
  double value = flags.GetDouble(name, off);
  if (value != off && !(value >= 0.0 && value <= 1.0)) {
    flags.Fail(std::string("--") + name + " must be in [0, 1]");
  }
  return value;
}

// The shared --slo-* flags as an SloSpec; a spec with no flags set checks nothing
// (Any() is false), so commands only pay for the watchdog when asked.
SloSpec ReadSlo(FlagSet& flags) {
  SloSpec spec;
  spec.max_worst_p99_ms = NonNegative(flags, "slo-p99-ms", 0.0);
  spec.min_availability = Fraction(flags, "slo-availability", 0.0);
  spec.max_link_backlog_bytes = IntAtLeast(flags, "slo-backlog-kb", 0, 0) * 1024;
  spec.max_starved_fraction = Fraction(flags, "slo-starved", -1.0);
  spec.out_dir = flags.GetString("postmortem-dir", "postmortems");
  return spec;
}

// Makes --postmortem-dir before anything is simulated, so a violating run's bundle has
// somewhere to go. False, with the reason on stderr, when the directory cannot be made.
bool MakePostmortemDir(const SloSpec& spec) {
  if (!spec.Any() || spec.out_dir.empty()) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(spec.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "tcsctl: cannot create --postmortem-dir=%s: %s\n",
                 spec.out_dir.c_str(), ec.message().c_str());
    return false;
  }
  return true;
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

// ---------------------------------------------------------------------------
// Experiments shared by the single-run commands, `trace` and `postmortem`. Their
// defaults differ per caller only where the arguments say so.

// Figure 3's typist against `sinks` CPU sinks for `seconds`.
Experiment<TypingUnderLoadResult> ReadTyping(FlagSet& flags, int sinks, int seconds) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
  int n = static_cast<int>(flags.GetInt("sinks", sinks));
  Duration duration = Duration::Seconds(flags.GetInt("seconds", seconds));
  uint64_t seed = Seed(flags);
  int cpus = static_cast<int>(flags.GetInt("cpus", 1));
  return [=](const ObsConfig* obs) {
    return RunTypingUnderLoad(profile, n, duration, seed, cpus, obs);
  };
}

// §5.2's keystroke after a memory hog, `runs` trials by default. There is no duration
// to set: every trial types one key after ~30 s of hog think time.
Experiment<PagingLatencyResult> ReadPaging(FlagSet& flags, int runs) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "linux"));
  EvictionPolicy policy = flags.GetBool("protect") ? EvictionPolicy::kInteractiveProtect
                                                   : EvictionPolicy::kGlobalLru;
  bool full_demand = flags.GetBool("full-demand", true);
  int n = static_cast<int>(IntAtLeast(flags, "runs", runs, 1));
  uint64_t seed = Seed(flags);
  return [=](const ObsConfig* obs) {
    return RunPagingLatency(profile, full_demand, n, seed, policy, obs);
  };
}

Experiment<SizingPoint> ReadSizing(FlagSet& flags) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
  int users = static_cast<int>(flags.GetInt("users", 10));
  Duration duration = Duration::Seconds(flags.GetInt("seconds", 30));
  uint64_t seed = Seed(flags);
  return [=](const ObsConfig* obs) {
    return RunServerSizing(profile, users, duration, seed, obs);
  };
}

Experiment<EndToEndResult> ReadEndToEnd(FlagSet& flags) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
  EndToEndOptions opt;
  opt.sinks = static_cast<int>(flags.GetInt("sinks", 0));
  opt.background_mbps = NonNegative(flags, "background-mbps", 0.0);
  opt.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  opt.seed = Seed(flags);
  opt.faults.link.loss_rate = flags.GetDouble("loss", 0.0);
  std::string client = flags.GetString("client", "pc");
  if (client == "pc") {
    opt.client = ThinClientConfig::DesktopPc();
  } else if (client == "winterm") {
    opt.client = ThinClientConfig::WinTerm();
  } else if (client == "handheld") {
    opt.client = ThinClientConfig::Handheld();
  } else {
    flags.Fail("unknown --client '" + client + "' (pc|winterm|handheld)");
  }
  return [=](const ObsConfig* obs) { return RunEndToEndLatency(profile, opt, obs); };
}

// The chaos point the shared flags describe, before the loss rate and flap length.
ChaosOptions ReadChaos(FlagSet& flags) {
  ChaosOptions opt;
  opt.flap_every = Duration::Millis(IntAtLeast(flags, "flap-every-ms", 2000, 1));
  opt.disk_stall_rate = flags.GetDouble("disk-stall", 0.0);
  opt.disconnect_every = Duration::Millis(IntAtLeast(flags, "disconnect-ms", 0, 0));
  opt.sinks = static_cast<int>(flags.GetInt("sinks", 0));
  opt.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  opt.seed = Seed(flags);
  return opt;
}

GifAnimationOptions ReadGif(FlagSet& flags) {
  GifAnimationOptions opt;
  opt.frames = static_cast<int>(IntAtLeast(flags, "frames", 10, 1));
  opt.duration = Duration::Seconds(IntAtLeast(flags, "seconds", 20, 1));
  if (flags.GetBool("loop-aware")) {
    opt.cache_policy = CachePolicy::kLoopAware;
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Single-run commands.

Runner Idle(FlagSet& flags) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
  int64_t seconds = IntAtLeast(flags, "seconds", 60, 1);
  bool csv = flags.GetBool("csv");
  return [=] {
    IdleProfileResult r = RunIdleProfile(profile, Duration::Seconds(seconds));
    TextTable table({"event length (ms)", "cumulative busy (s)"});
    for (const auto& pt : r.cumulative) {
      table.AddRow({TextTable::Fixed(pt.event_length.ToMillisF(), 1),
                    TextTable::Fixed(pt.cumulative_latency.ToSecondsF(), 3)});
    }
    Emit(table, csv);
    std::printf("total idle busy over %llds: %s (%.2f%% of the trace)\n",
                static_cast<long long>(seconds), r.total_busy.ToString().c_str(),
                100.0 * r.total_busy.ToSecondsF() / static_cast<double>(seconds));
    return 0;
  };
}

Runner Typing(FlagSet& flags) {
  Experiment<TypingUnderLoadResult> typing = ReadTyping(flags, 0, 60);
  return [=] {
    TypingUnderLoadResult r = typing(nullptr);
    std::printf("%s, %d sinks: avg stall %.1f ms, max %.1f ms, jitter %.1f ms, %lld "
                "updates\n",
                r.os_name.c_str(), r.sinks, r.avg_stall_ms, r.max_stall_ms, r.jitter_ms,
                static_cast<long long>(r.updates));
    return 0;
  };
}

Runner Paging(FlagSet& flags) {
  Experiment<PagingLatencyResult> paging = ReadPaging(flags, 10);
  bool protect = flags.GetBool("protect");
  return [=] {
    PagingLatencyResult r = paging(nullptr);
    std::printf("%s (%s demand, %s): min %.0f ms, avg %.0f ms, max %.0f ms over %d runs\n",
                r.os_name.c_str(), r.full_demand ? ">=100%" : "<100%",
                protect ? "interactive-protect" : "global LRU", r.min_ms, r.avg_ms,
                r.max_ms, r.runs);
    return 0;
  };
}

Runner Traffic(FlagSet& flags) {
  ProtocolKind kind = ParseProtocol(flags, flags.GetString("protocol", "rdp"));
  int steps = static_cast<int>(IntAtLeast(flags, "steps", 600, 1));
  bool csv = flags.GetBool("csv");
  return [=] {
    ProtocolTrafficResult r = RunAppWorkloadTraffic(kind, 1, steps);
    TextTable table({"channel", "bytes", "messages"});
    table.AddRow(
        {"input", TextTable::Num(r.input.bytes), TextTable::Num(r.input.messages)});
    table.AddRow(
        {"display", TextTable::Num(r.display.bytes), TextTable::Num(r.display.messages)});
    table.AddRow(
        {"total", TextTable::Num(r.total_bytes), TextTable::Num(r.total_messages)});
    Emit(table, csv);
    std::printf("avg message %.1f B; VIP would save %s\n", r.avg_message_size,
                TextTable::Percent(static_cast<double>(r.total_bytes - r.vip_bytes) /
                                   static_cast<double>(r.total_bytes), 2)
                    .c_str());
    return 0;
  };
}

Runner Webpage(FlagSet& flags) {
  bool banner = !flags.GetBool("no-banner");
  bool marquee = !flags.GetBool("no-marquee");
  Duration duration = Duration::Seconds(IntAtLeast(flags, "seconds", 160, 1));
  return [=] {
    AnimationLoadResult r = RunWebPageLoad(ProtocolKind::kRdp, banner, marquee, duration);
    std::printf("%s: sustained %.3f Mbps (mean %.3f); cache %lld hits / %lld misses\n",
                r.protocol.c_str(), r.sustained_mbps, r.mean_mbps,
                static_cast<long long>(r.cache_hits),
                static_cast<long long>(r.cache_misses));
    return 0;
  };
}

Runner Gif(FlagSet& flags) {
  ProtocolKind kind = ParseProtocol(flags, flags.GetString("protocol", "rdp"));
  GifAnimationOptions opt = ReadGif(flags);
  return [=] {
    AnimationLoadResult r = RunGifAnimation(kind, opt);
    std::printf("%s, %d frames: sustained %.3f Mbps; cache hit ratio %.1f%%\n",
                r.protocol.c_str(), opt.frames, r.sustained_mbps,
                r.cumulative_hit_ratio * 100.0);
    return 0;
  };
}

Runner Rtt(FlagSet& flags) {
  double mbps = NonNegative(flags, "mbps", 0.0);
  Duration duration = Duration::Seconds(IntAtLeast(flags, "seconds", 60, 1));
  return [=] {
    RttProbeResult r = RunRttProbe(mbps, duration);
    std::printf("offered %.1f Mbps: mean RTT %.2f ms, variance %.3f ms^2\n",
                r.offered_mbps, r.mean_rtt_ms, r.rtt_variance);
    return 0;
  };
}

Runner Sizing(FlagSet& flags) {
  Experiment<SizingPoint> sizing = ReadSizing(flags);
  return [=] {
    SizingPoint p = sizing(nullptr);
    std::printf("%s, %d users: CPU %.1f%%, avg stall %.1f ms, worst user %.1f ms\n",
                p.os_name.c_str(), p.users, p.cpu_utilization * 100.0, p.avg_stall_ms,
                p.worst_stall_ms);
    return 0;
  };
}

Runner E2e(FlagSet& flags) {
  Experiment<EndToEndResult> e2e = ReadEndToEnd(flags);
  return [=] {
    EndToEndResult r = e2e(nullptr);
    std::printf("%s on %s: input %.2f + server %.2f + display %.2f + client %.2f = %.2f "
                "ms (%lld updates)\n",
                r.os_name.c_str(), r.client_name.c_str(), r.input_net_ms, r.server_ms,
                r.display_net_ms, r.client_ms, r.total_ms,
                static_cast<long long>(r.updates));
    return 0;
  };
}

// ---------------------------------------------------------------------------
// Sweeps: each lists its cells and runs them through a SweepCommand's grid (tools/grid.h).

// One run's SLO verdict, and where the SLO summary says the run was.
struct Verdict {
  const SloReport* slo;
  std::string where;  // "at loss 1.0% / flap 50 ms"
};

// What every sweep reads besides its axes, and the output every sweep shares.
class SweepCommand {
 public:
  // What a sweep takes besides --jobs and --csv: the --slo-* flags, and --report-out.
  static constexpr int kSlo = 1;
  static constexpr int kReport = 2;

  SweepCommand(FlagSet& flags, int takes)
      : grid_(static_cast<int>(flags.GetInt("jobs", 0))),
        slo_((takes & kSlo) != 0 ? ReadSlo(flags) : SloSpec()),
        csv_(flags.GetBool("csv")),
        report_out_((takes & kReport) != 0 ? flags.GetString("report-out", "") : "") {}

  const Grid& grid() const { return grid_; }
  bool csv() const { return csv_; }
  bool MakePostmortemDir() const { return tcs::MakePostmortemDir(slo_); }

  // Runs fn(cell, obs) for every cell, obs watching the cell under its own copy of the
  // --slo-* spec with the bundle name cell.bundle, or null without --slo-*. A bundle
  // name comes from the cell's place in the grid, so --jobs cannot rename it.
  template <typename Cell, typename Fn>
  auto RunWatched(const std::vector<Cell>& cells, Fn fn) const {
    return grid_.Run(cells, [&](const Cell& cell) {
      SloSpec spec = slo_;
      spec.name = cell.bundle;
      ObsConfig obs{.slo = &spec};
      return fn(cell, spec.Any() ? &obs : nullptr);
    });
  }

  // The share of end-to-end time each stage of result.blame owns, one row per cell after
  // keys(result), with degradation-hold's last when `hold`.
  template <typename R, typename Keys>
  void PrintStageShares(const std::vector<R>& ran, std::vector<std::string> header,
                        Keys keys, bool hold = false) const {
    header.insert(header.end(), {"input-net", "retransmit", "sched-wait", "cpu", "mem",
                                 "proto", "display-net", "decode"});
    if (hold) {
      header.push_back("degr-hold");
    }
    TextTable table(std::move(header));
    for (const R& r : ran) {
      std::vector<std::string> row = keys(r.result);
      for (const StageSummary& s : r.result.blame.stages) {
        row.push_back(TextTable::Percent(s.share, 1));
      }
      table.AddRow(std::move(row));
    }
    std::printf("per-stage share of end-to-end latency:\n");
    Emit(table, csv_);
  }

  // Without --slo-*, nothing. Otherwise, in grid order, "SLO violated <where>:
  // <objective>" and the bundle paths of every verdict that failed, then "SLO: k of n
  // <noun> violated", or "SLO: k <noun> violated" when not `of_all` (capacity's probes,
  // whose number the search decides).
  void PrintSlo(const std::vector<Verdict>& verdicts, const char* noun,
                bool of_all = true) const {
    if (!slo_.Any()) {
      return;
    }
    int violated = 0;
    for (const Verdict& v : verdicts) {
      if (!v.slo->active || v.slo->passed) {
        continue;
      }
      ++violated;
      std::printf("SLO violated %s: %s\n", v.where.c_str(),
                  v.slo->violating_objective.c_str());
      for (const std::string& path : v.slo->postmortems) {
        std::printf("  postmortem: %s\n", path.c_str());
      }
    }
    if (of_all) {
      std::printf("SLO: %d of %zu %s violated\n", violated, verdicts.size(), noun);
    } else {
      std::printf("SLO: %d %s violated\n", violated, noun);
    }
  }

  // Writes --report-out, when asked for, as {"experiment":<experiment>, `fields`,
  // "points":[point(r) for each cell]}, then the footer below. Returns the exit code: 1
  // when the report cannot be written.
  template <typename R, typename Point>
  int Finish(const std::vector<R>& ran, const char* noun, const char* experiment,
             Point point,
             const std::vector<std::pair<const char*, std::string>>& fields = {}) const {
    if (!report_out_.empty()) {
      JsonObject report;
      report.Str("experiment", experiment);
      for (const auto& [key, value] : fields) {
        report.Str(key, value);
      }
      std::string points;
      for (const R& r : ran) {
        points += (points.empty() ? "" : ",") + point(r);
      }
      report.Raw("points", "[" + points + "]");
      if (!WriteFile(report_out_, report.Finish() + "\n")) {
        return 1;
      }
    }
    return Finish(ran.size(), noun);
  }

  // "<cells> <noun> over <workers> workers" on stderr, where it cannot change stdout.
  int Finish(size_t cells, const char* noun) const {
    std::fprintf(stderr, "%zu %s over %d workers\n", cells, noun, grid_.workers());
    return 0;
  }

 private:
  Grid grid_;
  SloSpec slo_;
  bool csv_;
  std::string report_out_;
};

// Crosses the OS list with the load list (sinks for typing/e2e, users for sizing), OS
// major and load minor.
Runner Sweep(FlagSet& flags) {
  std::string experiment = flags.GetString("experiment", "typing");
  if (experiment != "typing" && experiment != "sizing" && experiment != "e2e") {
    flags.Fail("unknown --experiment '" + experiment + "' (typing|sizing|e2e)");
  }
  std::string os_list = flags.GetString("os", "all");
  if (os_list == "all") {
    os_list = "tse,linux,ntws,svr4";
  }
  std::vector<OsProfile> profiles;
  for (const std::string& word : SplitList(os_list)) {
    profiles.push_back(ParseOs(flags, word));
  }
  bool sizing = experiment == "sizing";
  const char* load_label = sizing ? "users" : "sinks";
  std::vector<int> loads =
      ReadList<int>(flags, load_label, sizing ? "2,4,8,16" : "0,2,5,10");
  if (profiles.empty() || loads.empty()) {
    flags.Fail(std::string("needs at least one --os and one --") + load_label + " value");
  }
  Duration seconds = Duration::Seconds(flags.GetInt("seconds", 30));
  uint64_t base_seed = Seed(flags);
  SweepCommand sweep(flags, sizing ? 0 : SweepCommand::kSlo);
  double background_mbps =
      experiment == "e2e" ? NonNegative(flags, "background-mbps", 0.0) : 0.0;

  return [=] {
    if (!sweep.MakePostmortemDir()) {
      return 2;
    }
    struct Cell {
      OsProfile profile;
      int load;
      uint64_t seed;
      std::string bundle;
    };
    std::vector<Cell> cells;
    for (const OsProfile& profile : profiles) {
      for (int load : loads) {
        size_t i = cells.size();
        cells.push_back({profile, load, SweepSeed(base_seed, i),
                         "sweep_" + experiment + "_cfg" + std::to_string(i)});
      }
    }
    // Each cell renders its own row; sizing runs unwatched, with an empty verdict.
    struct Row {
      std::vector<std::string> columns;
      SloReport slo;
    };
    auto rows = sweep.RunWatched(cells, [&](const Cell& c, const ObsConfig* obs) -> Row {
      if (experiment == "typing") {
        TypingUnderLoadResult r =
            RunTypingUnderLoad(c.profile, c.load, seconds, c.seed, 1, obs);
        return {{r.os_name, TextTable::Num(r.sinks), TextTable::Fixed(r.avg_stall_ms, 1),
                 TextTable::Fixed(r.max_stall_ms, 1), TextTable::Fixed(r.jitter_ms, 1),
                 TextTable::Num(r.updates)},
                std::move(r.slo)};
      }
      if (sizing) {
        SizingPoint p = RunServerSizing(c.profile, c.load, seconds, c.seed);
        return {{p.os_name, TextTable::Num(p.users), TextTable::Percent(p.cpu_utilization, 1),
                 TextTable::Fixed(p.avg_stall_ms, 1), TextTable::Fixed(p.worst_stall_ms, 1)},
                {}};
      }
      EndToEndOptions opt;
      opt.sinks = c.load;
      opt.background_mbps = background_mbps;
      opt.duration = seconds;
      opt.seed = c.seed;
      EndToEndResult r = RunEndToEndLatency(c.profile, opt, obs);
      return {{r.os_name, TextTable::Num(c.load), TextTable::Fixed(r.input_net_ms, 2),
               TextTable::Fixed(r.server_ms, 2), TextTable::Fixed(r.display_net_ms, 2),
               TextTable::Fixed(r.client_ms, 2), TextTable::Fixed(r.total_ms, 2)},
              std::move(r.slo)};
    });

    TextTable table = [&] {
      if (experiment == "typing") {
        return TextTable({"os", "sinks", "avg stall (ms)", "max stall (ms)", "jitter (ms)",
                          "updates"});
      }
      if (sizing) {
        return TextTable({"os", "users", "CPU util", "avg stall (ms)", "worst user (ms)"});
      }
      return TextTable({"os", "sinks", "input (ms)", "server (ms)", "display (ms)",
                        "client (ms)", "total (ms)"});
    }();
    std::vector<Verdict> verdicts;
    for (const auto& [cell, row] : rows) {
      table.AddRow(row.columns);
      verdicts.push_back({&row.slo, "at config " + std::to_string(verdicts.size())});
    }
    Emit(table, sweep.csv());
    sweep.PrintSlo(verdicts, "configs");
    return sweep.Finish(rows.size(), "configs");
  };
}

// Fault-injection sweep: crosses frame-loss rates with link-outage ("flap") lengths, runs
// the end-to-end typing workload under each deterministic fault plan, and reports the
// keystroke latency distribution, the fraction above the perception threshold,
// availability and the retransmission ledger. The first grid point whose p99 crosses
// --threshold-ms is called out.
Runner Chaos(FlagSet& flags) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
  std::vector<double> losses = ReadList<double>(flags, "loss", "0,0.01,0.05");
  std::vector<int> flap_ms = ReadList<int>(flags, "flap-ms", "0,50");
  if (losses.empty() || flap_ms.empty()) {
    flags.Fail("needs at least one --loss and one --flap-ms value");
  }
  for (double loss : losses) {
    if (loss < 0.0 || loss >= 1.0) {
      flags.Fail("--loss entries must be in [0,1)");
    }
  }
  for (int flap : flap_ms) {
    if (flap < 0) {
      flags.Fail("--flap-ms entries cannot be negative");
    }
  }
  ChaosOptions base = ReadChaos(flags);
  base.threshold = Duration::Millis(IntAtLeast(flags, "threshold-ms", 150, 0));
  SweepCommand sweep(flags, SweepCommand::kSlo | SweepCommand::kReport);

  return [=] {
    if (!sweep.MakePostmortemDir()) {
      return 2;
    }
    // Loss-major, flap-minor, each cell with a position-derived seed; a violating cell's
    // bundle is named by that position and seed.
    struct Cell {
      ChaosOptions opt;
      std::string bundle;
    };
    std::vector<Cell> cells;
    for (double loss : losses) {
      for (int flap : flap_ms) {
        Cell c{base, "chaos_cell" + std::to_string(cells.size())};
        c.opt.loss_rate = loss;
        if (flap > 0) {
          c.opt.flap_duration = Duration::Millis(flap);
        }
        c.opt.seed = SweepSeed(base.seed, cells.size());
        c.bundle += "_seed" + std::to_string(c.opt.seed);
        cells.push_back(std::move(c));
      }
    }
    auto points = sweep.RunWatched(cells, [&](const Cell& c, const ObsConfig* obs) {
      return RunChaosPoint(profile, c.opt, obs);
    });

    TextTable table({"loss", "flap (ms)", "p50 (ms)", "p99 (ms)", "mean (ms)",
                     "> threshold", "availability", "retransmits", "updates"});
    const ChaosPoint* first_crossing = nullptr;
    std::vector<Verdict> verdicts;
    for (const auto& [cell, p] : points) {
      table.AddRow({TextTable::Percent(p.loss_rate, 1), TextTable::Fixed(p.flap_ms, 0),
                    TextTable::Fixed(p.p50_ms, 2), TextTable::Fixed(p.p99_ms, 2),
                    TextTable::Fixed(p.mean_ms, 2),
                    TextTable::Percent(p.perceptible_fraction, 1),
                    TextTable::Percent(p.faults.availability, 2),
                    TextTable::Num(p.retransmissions), TextTable::Num(p.updates)});
      if (first_crossing == nullptr && p.crosses_threshold) {
        first_crossing = &p;
      }
      verdicts.push_back({&p.slo, Format("at loss %.1f%% / flap %.0f ms",
                                         p.loss_rate * 100.0, p.flap_ms)});
    }
    Emit(table, sweep.csv());
    // Blame view of the same grid: as loss and flapping grow, time visibly migrates out
    // of the service stages into retransmit and the network legs.
    sweep.PrintStageShares(points, {"loss", "flap (ms)"}, [](const ChaosPoint& p) {
      return std::vector<std::string>{TextTable::Percent(p.loss_rate, 1),
                                      TextTable::Fixed(p.flap_ms, 0)};
    });
    const long long threshold_ms = base.threshold.ToMicros() / 1000;
    if (first_crossing != nullptr) {
      std::printf("p99 first crosses %lld ms at loss %.1f%% / flap %.0f ms "
                  "(p99 %.1f ms, %.1f%% of keystrokes perceptible)\n",
                  threshold_ms, first_crossing->loss_rate * 100.0, first_crossing->flap_ms,
                  first_crossing->p99_ms, first_crossing->perceptible_fraction * 100.0);
    } else {
      std::printf("p99 stays under %lld ms across the grid\n", threshold_ms);
    }
    sweep.PrintSlo(verdicts, "cells");
    return sweep.Finish(points, "chaos points", "chaos_sweep",
                        [](const auto& r) { return ToJson(r.result); });
  };
}

// WAN pathology sweep: runs each named link profile (RTT + jitter, asymmetric up/down
// bandwidth, bufferbloat drop-tail queue, Gilbert-Elliott burst loss) twice, graceful
// degradation off and then on, both arms on the same seed, and compares worst-user p99,
// availability and starvation. The degrade-on arm arms the backpressure-driven
// DegradationController and reports its transition ledger.
Runner Wan(FlagSet& flags) {
  OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
  std::vector<std::string> names = SplitList(flags.GetString("profile", ""));
  if (names.empty()) {
    names = WanProfileNames();
  }
  // Resolve every profile up front so a typo fails fast instead of mid-sweep.
  std::vector<WanProfile> wan_profiles;
  for (const std::string& name : names) {
    wan_profiles.push_back(WanProfileByName(name));
  }
  WanOptions base;
  base.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  base.threshold = Duration::Millis(IntAtLeast(flags, "threshold-ms", 150, 0));
  base.starve_after = Duration::Millis(IntAtLeast(flags, "starve-after-ms", 1000, 0));
  base.users = static_cast<int>(flags.GetInt("users", 3));
  uint64_t base_seed = Seed(flags);
  SweepCommand sweep(flags, SweepCommand::kSlo | SweepCommand::kReport);

  return [=] {
    if (!sweep.MakePostmortemDir()) {
      return 2;
    }
    // Profile-major, arm-minor: each profile with degradation off, then on. Both arms of
    // a profile share the SAME seed, so the comparison isolates the controller —
    // identical workload, identical fault draws.
    struct Cell {
      WanOptions opt;
      std::string bundle;
    };
    std::vector<Cell> cells;
    for (size_t p = 0; p < wan_profiles.size(); ++p) {
      for (bool degrade : {false, true}) {
        Cell c{base, "wan_" + std::to_string(cells.size())};
        c.opt.profile = wan_profiles[p];
        c.opt.degrade = degrade;
        c.opt.seed = SweepSeed(base_seed, p);
        c.bundle += "_seed" + std::to_string(c.opt.seed);
        cells.push_back(std::move(c));
      }
    }
    auto points = sweep.RunWatched(cells, [&](const Cell& c, const ObsConfig* obs) {
      return RunWanPoint(profile, c.opt, obs);
    });

    TextTable table({"profile", "degrade", "worst p99 (ms)", "mean (ms)", "> threshold",
                     "availability", "worst starved", "shed", "queue drops", "updates"});
    std::vector<Verdict> verdicts;
    for (const auto& [cell, p] : points) {
      table.AddRow({p.profile, p.degrade ? "on" : "off",
                    TextTable::Fixed(p.worst_p99_ms, 2), TextTable::Fixed(p.mean_ms, 2),
                    TextTable::Percent(p.perceptible_fraction, 1),
                    TextTable::Percent(p.availability, 2),
                    TextTable::Percent(p.worst_starved_fraction, 1),
                    TextTable::Num(static_cast<int64_t>(p.faults.frames_shed)),
                    TextTable::Num(static_cast<int64_t>(p.faults.wan_queue_drops)),
                    TextTable::Num(p.updates)});
      verdicts.push_back(
          {&p.slo, Format("on %s (degrade %s)", p.profile.c_str(), p.degrade ? "on" : "off")});
    }
    Emit(table, sweep.csv());
    // Blame view: under WAN pathology the share migrates into retransmit and display-net;
    // with degradation on, part of it moves to the degr-hold column (the coalesce hold
    // is billed to its own stage, appended after decode; off-arm rows leave it empty).
    sweep.PrintStageShares(
        points, {"profile", "degrade"},
        [](const WanPoint& p) {
          return std::vector<std::string>{p.profile, p.degrade ? "on" : "off"};
        },
        /*hold=*/true);

    // Degrade-on vs degrade-off, per profile (its two arms share its seed): the headline
    // comparison.
    int better_both = 0;
    for (auto arms : GroupBy(points, [](const Cell& c) { return c.opt.seed; })) {
      const WanPoint& off = arms[0].result;
      const WanPoint& on = arms[1].result;
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
    std::printf("degradation improves worst-user p99 AND availability on %d of %zu "
                "profiles\n",
                better_both, wan_profiles.size());
    sweep.PrintSlo(verdicts, "cells");
    return sweep.Finish(points, "wan points", "wan_sweep",
                        [](const auto& r) { return ToJson(r.result); });
  };
}

WhatIfAdjustment::Component ParseComponent(FlagSet& flags, const std::string& word) {
  if (word == "link") {
    return WhatIfAdjustment::Component::kLink;
  }
  if (word == "cpu") {
    return WhatIfAdjustment::Component::kCpu;
  }
  if (word == "disk") {
    return WhatIfAdjustment::Component::kDisk;
  }
  if (word == "rtt") {
    return WhatIfAdjustment::Component::kRtt;
  }
  flags.Fail("unknown --component '" + word + "' (link|cpu|disk|rtt|all)");
  return WhatIfAdjustment::Component::kLink;
}

// Counterfactual what-if analysis: for each component, runs the WAN cell twice — a
// baseline whose per-interaction stages feed the analytic prediction (virtually speed
// up that one component), and an achieved arm re-simulated with the speedup
// applied to the hardware model. The gap between predicted and achieved p99 deltas is
// the second-order effects (queue drain, fewer RTOs, different batching) the model
// cannot see. The report carries no wall-clock field, so CI can cmp(1) two runs.
Runner WhatIf(FlagSet& flags) {
  std::string os_word = flags.GetString("os", "tse");
  OsProfile profile = ParseOs(flags, os_word);
  std::string profile_name = flags.GetString("profile", "lte");
  WanProfile wan = WanProfileByName(profile_name);
  std::string component_word = flags.GetString("component", "all");
  std::vector<std::string> words =
      component_word == "all" ? std::vector<std::string>{"link", "cpu", "disk", "rtt"}
                              : SplitList(component_word);
  std::vector<WhatIfAdjustment::Component> components;
  for (const std::string& w : words) {
    components.push_back(ParseComponent(flags, w));
  }
  if (components.empty()) {
    flags.Fail("needs at least one --component");
  }
  double speedup = flags.GetDouble("speedup", 2.0);
  if (!(speedup > 0.0)) {
    flags.Fail("--speedup must be positive");
  }
  int64_t rtt_delta_ms = IntAtLeast(flags, "rtt-delta-ms", 40, 0);
  WanOptions wan_opt;
  wan_opt.profile = wan;
  wan_opt.degrade = flags.GetBool("degrade");
  wan_opt.users = static_cast<int>(flags.GetInt("users", 3));
  wan_opt.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  wan_opt.seed = Seed(flags);
  SweepCommand sweep(flags, SweepCommand::kReport);

  return [=] {
    // Every cell shares the same WAN options and seed, so every baseline arm is the SAME
    // deterministic run: the rows differ only in which component the counterfactual
    // touches.
    std::vector<WhatIfOptions> cells;
    for (WhatIfAdjustment::Component component : components) {
      cells.push_back({wan_opt, {component, speedup, rtt_delta_ms * 1000}});
    }
    auto results =
        sweep.grid().Run(cells, [&](const WhatIfOptions& opt) { return RunWhatIf(profile, opt); });

    auto ms = [](int64_t us) { return static_cast<double>(us) / 1000.0; };
    TextTable table({"component", "counterfactual", "baseline p99 (ms)",
                     "predicted p99 (ms)", "achieved p99 (ms)", "pred delta (ms)",
                     "ach delta (ms)", "model gap (ms)"});
    // The question the command exists to answer: which upgrade actually buys latency.
    int64_t mismatches = 0;
    const WhatIfResult* best = nullptr;
    for (const auto& [cell, r] : results) {
      std::string what = r.component == "rtt"
                             ? "-" + TextTable::Num(rtt_delta_ms) + " ms RTT"
                             : "x" + TextTable::Fixed(r.speedup, 2) + " " + r.component;
      table.AddRow({r.component, what, TextTable::Fixed(ms(r.baseline_p99_us), 2),
                    TextTable::Fixed(ms(r.predicted_p99_us), 2),
                    TextTable::Fixed(ms(r.achieved_p99_us), 2),
                    TextTable::Fixed(ms(r.predicted_delta_us), 2),
                    TextTable::Fixed(ms(r.achieved_delta_us), 2),
                    TextTable::Fixed(ms(r.achieved_delta_us - r.predicted_delta_us), 2)});
      mismatches += r.critical_path_mismatches;
      if (best == nullptr || r.achieved_delta_us > best->achieved_delta_us) {
        best = &r;
      }
    }
    Emit(table, sweep.csv());
    std::printf("%s on %s: best achieved p99 improvement is %s (%.2f ms; model "
                "predicted %.2f ms)\n",
                os_word.c_str(), profile_name.c_str(), best->component.c_str(),
                ms(best->achieved_delta_us), ms(best->predicted_delta_us));
    std::printf("critical-path invariant: %lld mismatches over %lld baseline "
                "interactions\n",
                static_cast<long long>(mismatches),
                static_cast<long long>(results.front().result.interactions));
    return sweep.Finish(
        results, "whatif cells", "whatif",
        [](const auto& ran) {
          const WhatIfResult& r = ran.result;
          JsonObject o;
          o.Str("component", r.component);
          o.Double("speedup", r.speedup);
          o.Int("rtt_delta_us", r.rtt_delta_us);
          o.Raw("whatif", WhatIfBlockJson(r));
          o.Raw("baseline_blame", ToJson(r.baseline.blame));
          o.Raw("adjusted_blame", ToJson(r.adjusted.blame));
          return o.Finish();
        },
        {{"os", os_word}, {"profile", profile_name}});
  };
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

std::vector<OsConfig> ReadOsConfigs(FlagSet& flags, const char* fallback) {
  std::vector<OsConfig> out;
  for (const std::string& token : SplitList(flags.GetString("os", fallback))) {
    OsConfig cfg;
    size_t colon = token.find(':');
    cfg.os_word = token.substr(0, colon);
    cfg.profile = ParseOs(flags, cfg.os_word);
    if (colon != std::string::npos) {
      cfg.profile.protocol_kind = ParseProtocol(flags, token.substr(colon + 1));
    }
    cfg.proto_word = ProtocolWord(cfg.profile.protocol_kind);
    out.push_back(std::move(cfg));
  }
  return out;
}

// Per-interaction latency attribution: runs the end-to-end keystroke workload for every
// OS(:protocol) x sinks configuration and prints where each interaction's microseconds
// went, stage by stage (the stages sum exactly to end-to-end). Names the configuration
// whose p99 first crosses --threshold-ms and the stage that dominates it. With
// --profile the runs go through that WAN pathology, and a second table splits the
// display-net stage into queueing, retransmit wait, serialization, propagation and
// jitter (the sub-stages sum exactly to the display-net total).
Runner Blame(FlagSet& flags) {
  std::vector<OsConfig> base = ReadOsConfigs(flags, "tse,linux,linux:lbx");
  std::vector<int> sink_list = ReadList<int>(flags, "sinks", "0,5");
  if (base.empty() || sink_list.empty()) {
    flags.Fail("needs at least one --os and one --sinks value");
  }
  std::string wan_name = flags.GetString("profile", "");
  EndToEndOptions e2e;
  if (!wan_name.empty()) {
    e2e.faults.link.wan = WanProfileByName(wan_name);
  }
  e2e.duration = Duration::Seconds(flags.GetInt("seconds", 30));
  Duration threshold = Duration::Millis(IntAtLeast(flags, "threshold-ms", 100, 0));
  e2e.background_mbps = NonNegative(flags, "background-mbps", 0.0);
  double loss = flags.GetDouble("loss", 0.0);
  if (loss > 0.0) {
    e2e.faults.link.loss_rate = loss;
  }
  if (int flap = static_cast<int>(IntAtLeast(flags, "flap-ms", 0, 0)); flap > 0) {
    e2e.faults.link.flap_every = Duration::Millis(2000);
    e2e.faults.link.flap_duration = Duration::Millis(flap);
  }
  uint64_t base_seed = Seed(flags);
  SweepCommand sweep(flags, SweepCommand::kReport);

  return [=] {
    // OS-major, sinks-minor, each config with a position-derived seed and its own
    // attribution engine.
    struct Cell {
      OsConfig cfg;
      EndToEndOptions opt;
    };
    std::vector<Cell> cells;
    for (const OsConfig& cfg : base) {
      for (int sinks : sink_list) {
        Cell c{cfg, e2e};
        c.opt.sinks = sinks;
        c.opt.seed = SweepSeed(base_seed, cells.size());
        if (!wan_name.empty()) {
          c.opt.faults.seed = c.opt.seed ^ 0xFA017u;
        }
        cells.push_back(std::move(c));
      }
    }
    auto results = sweep.grid().Run(cells, [&](const Cell& c) {
      LatencyAttribution attribution({.decompose_network = !wan_name.empty()});
      ObsConfig obs{.attribution = &attribution};
      return RunEndToEndLatency(c.cfg.profile, c.opt, &obs).blame;
    });

    // One row per stage that saw time in the cell.
    auto add_stages = [](TextTable& table, const Cell& c,
                         const std::vector<StageSummary>& stages) {
      for (const StageSummary& s : stages) {
        if (s.total_us == 0) {
          continue;
        }
        table.AddRow({c.cfg.os_word, c.cfg.proto_word, TextTable::Num(c.opt.sinks), s.stage,
                      TextTable::Percent(s.share, 1),
                      TextTable::Fixed(static_cast<double>(s.p50_us) / 1000.0, 2),
                      TextTable::Fixed(static_cast<double>(s.p99_us) / 1000.0, 2),
                      TextTable::Fixed(static_cast<double>(s.max_us) / 1000.0, 2)});
      }
    };
    TextTable table({"os", "protocol", "sinks", "stage", "share", "p50 (ms)", "p99 (ms)",
                     "max (ms)"});
    TextTable net_table({"os", "protocol", "sinks", "net stage", "share", "p50 (ms)",
                         "p99 (ms)", "max (ms)"});
    int64_t net_mismatches = 0;
    // The question the command exists to answer: which configuration goes perceptible
    // first, and which resource is to blame when it does.
    const long long threshold_ms = threshold.ToMicros() / 1000;
    std::string verdicts;
    std::string first;
    for (const auto& [cell, blame] : results) {
      add_stages(table, cell, blame.stages);
      add_stages(net_table, cell, blame.net_stages);
      net_mismatches += blame.net_mismatches;
      const char* os = cell.cfg.os_word.c_str();
      const char* proto = cell.cfg.proto_word.c_str();
      const StageSummary* top = DominantStage(blame);
      const char* stage = top != nullptr ? top->stage.c_str() : "?";
      bool over = blame.p99_total_us > threshold.ToMicros();
      verdicts += Format("%s/%s, %d sinks: p99 %.2f ms (%s %lld ms); dominant stage %s "
                         "(%.0f%%)\n",
                         os, proto, cell.opt.sinks,
                         static_cast<double>(blame.p99_total_us) / 1000.0,
                         over ? "crosses" : "under", threshold_ms, stage,
                         top != nullptr ? top->share * 100.0 : 0.0);
      if (over && first.empty()) {
        first = Format("p99 first crosses %lld ms at %s/%s with %d sinks — blame %s\n",
                       threshold_ms, os, proto, cell.opt.sinks, stage);
      }
    }
    Emit(table, sweep.csv());
    if (!wan_name.empty()) {
      // WAN-aware blame: where inside the wire the display-net microseconds went. The
      // shares are over the network grand total; the sub-stage sums equal the
      // display-net stage total exactly (net_mismatches counts any commit that violated
      // this — 0).
      std::printf("display-net decomposition under the %s profile (%lld decomposition "
                  "mismatches):\n",
                  wan_name.c_str(), static_cast<long long>(net_mismatches));
      Emit(net_table, sweep.csv());
    }
    if (first.empty()) {
      first = Format("p99 stays under %lld ms across the grid\n", threshold_ms);
    }
    std::printf("%s%s", verdicts.c_str(), first.c_str());

    // No run/wall_ms block anywhere in the report: byte-identical across reruns and
    // --jobs values, so CI can cmp(1) two sweeps.
    return sweep.Finish(results, "blame configs", "blame", [](const auto& r) {
      JsonObject o;
      o.Str("os", r.cell.cfg.os_word);
      o.Str("protocol", r.cell.cfg.proto_word);
      o.Int("sinks", r.cell.opt.sinks);
      o.Raw("blame", ToJson(r.result));
      return o.Finish();
    });
  };
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

// Admission-control capacity search: for every OS(:protocol) configuration, bisects the
// most concurrently admitted interactive users under both sizing doctrines — aggregate
// CPU below --max-util, and every user's p99 keystroke stall below --max-p99-ms — over
// the full consolidation stack (per-session protocol pipelines on the shared link,
// cross-session text-page sharing, per-user typing plus periodic application bursts).
// Flags the configurations where utilization sizing over-admits.
Runner Capacity(FlagSet& flags) {
  std::vector<OsConfig> base = ReadOsConfigs(flags, "tse,linux");
  if (base.empty()) {
    flags.Fail("needs at least one --os entry");
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
  SweepCommand sweep(flags, SweepCommand::kSlo | SweepCommand::kReport);

  return [=] {
    if (!sweep.MakePostmortemDir()) {
      return 2;
    }
    // The sweep parallelizes across configurations only; each configuration's binary
    // search is sequential and memoized, with every candidate run on the same
    // position-derived seed. With --slo-* flags every probe is watched; bundle stems
    // carry the configuration and candidate N.
    struct Cell {
      OsConfig cfg;
      CapacityOptions options;
      std::string bundle;
    };
    std::vector<Cell> cells;
    for (const OsConfig& cfg : base) {
      Cell c{cfg, proto_options, "capacity_" + cfg.os_word + "_" + cfg.proto_word};
      c.options.behavior.seed = SweepSeed(base_seed, cells.size());
      cells.push_back(std::move(c));
    }
    auto results = sweep.RunWatched(cells, [](const Cell& c, const ObsConfig* obs) {
      return RunServerCapacity(c.cfg.profile, c.options, obs);
    });

    TextTable table({"os", "protocol", "latency-sized", "util-sized", "over-admits",
                     "p99 @ util (ms)", "CPU @ util", "resident @ latency"});
    std::string over_admits;
    std::vector<Verdict> verdicts;
    for (const auto& [cell, r] : results) {
      const char* os = cell.cfg.os_word.c_str();
      const char* proto = cell.cfg.proto_word.c_str();
      const ConsolidationResult* at_util = FindProbe(r, r.utilization_sized_users);
      const ConsolidationResult* at_latency = FindProbe(r, r.latency_sized_users);
      table.AddRow(
          {os, proto, TextTable::Num(r.latency_sized_users),
           TextTable::Num(r.utilization_sized_users),
           r.utilization_over_admits ? "yes" : "no",
           at_util != nullptr ? TextTable::Fixed(at_util->worst_p99_stall_ms, 1) : "-",
           at_util != nullptr ? TextTable::Percent(at_util->cpu_utilization, 1) : "-",
           at_latency != nullptr
               ? TextTable::Num(static_cast<int64_t>(at_latency->resident_pages)) + "/" +
                     TextTable::Num(static_cast<int64_t>(at_latency->total_frames))
               : "-"});
      if (r.utilization_over_admits) {
        over_admits += Format(
            "%s/%s: utilization sizing (< %.0f%% CPU) admits %d users, but the worst "
            "user's p99 stall there is %.1f ms — latency sizing stops at %d\n",
            os, proto, proto_options.admission.max_utilization * 100.0,
            r.utilization_sized_users, at_util != nullptr ? at_util->worst_p99_stall_ms : 0.0,
            r.latency_sized_users);
      }
      for (const ConsolidationResult& probe : r.probes) {
        verdicts.push_back({&probe.slo, Format("at %s/%s with %d users", os, proto, probe.users)});
      }
    }
    Emit(table, sweep.csv());
    std::fputs(over_admits.c_str(), stdout);
    sweep.PrintSlo(verdicts, "probes", /*of_all=*/false);
    return sweep.Finish(results, "capacity configs", "capacity_sweep",
                        [](const auto& r) { return ToJson(r.result); });
  };
}

// ---------------------------------------------------------------------------
// Observed single runs.

// Runs one postmortem experiment under `obs` and returns its SLO verdict; `print` prints
// the run's summary line.
using SloRun = std::function<SloReport(const ObsConfig* obs, bool print)>;

// --rewind-ms: the monitored run violated its SLO at virtual time V, so run the same
// experiment again with a tracer that keeps the events from V - rewind_ms on. A tracer
// schedules no events and draws no randomness, so the rerun hits the violation at the
// same instant, and its trace shows the lead-up that the flight recorder's short frozen
// window cannot. The rerun's bundle is <name>_replay, next to the monitored run's.
int Rewind(const SloRun& run, const SloSpec& spec, const SloReport& monitored,
           int64_t rewind_ms, const std::string& trace_path) {
  if (monitored.passed) {
    std::printf("rewind: SLO held for the whole run; nothing to replay\n");
    return 0;
  }
  const int64_t violated_at_us = monitored.violated_at_us;
  TracerConfig tracer_cfg;
  if (rewind_ms <= violated_at_us / 1000) {  // else V - N < 0: trace from 0
    tracer_cfg.from = TimePoint::FromMicros(violated_at_us - rewind_ms * 1000);
  }
  Tracer tracer(tracer_cfg);
  SloSpec replay_spec = spec;
  replay_spec.name += "_replay";
  ObsConfig replay_obs;
  replay_obs.slo = &replay_spec;
  replay_obs.tracer = &tracer;
  SloReport replay = run(&replay_obs, /*print=*/false);
  if (replay.violated_at_us != violated_at_us) {
    std::fprintf(stderr,
                 "rewind: replay diverged from the monitored run (violation at %lld us "
                 "vs %lld us) — determinism bug, please report\n",
                 static_cast<long long>(replay.violated_at_us),
                 static_cast<long long>(violated_at_us));
    return 1;
  }
  if (!WriteFile(trace_path, tracer.ToJson())) {
    return 1;
  }
  std::printf(
      "rewind: replay reproduced the violation at %.3f ms (virtual); traced from %.3f "
      "ms: %s\n",
      static_cast<double>(violated_at_us) / 1000.0, tracer_cfg.from.ToMillisF(),
      trace_path.c_str());
  return 0;
}

// Runs one experiment under a (by default tight) SLO. On violation the always-on flight
// recorder's frozen window and a forensic summary are written as <dir>/<name>.trace.json
// and <dir>/<name>.postmortem.json, deterministically named and byte-identical across
// reruns. --rewind-ms=N then re-runs it traced from N ms before the violation (Rewind).
Runner Postmortem(FlagSet& flags) {
  std::string experiment = flags.Positional(1);
  if (experiment == "typing_under_load") {
    experiment = "typing";
  } else if (experiment == "end_to_end" || experiment == "end_to_end_latency") {
    experiment = "e2e";
  } else if (experiment == "chaos_point") {
    experiment = "chaos";
  }
  // Tight defaults: a p99 budget at the perception threshold and near-perfect
  // availability, so the command catches real degradation out of the box. Explicit
  // --slo-* flags override.
  SloSpec spec = ReadSlo(flags);
  if (!spec.Any()) {
    spec.max_worst_p99_ms = flags.GetDouble("slo-p99-ms", 100.0);
    spec.min_availability = flags.GetDouble("slo-availability", 0.99);
  }
  spec.name = experiment;

  SloRun run;
  if (experiment == "typing") {
    Experiment<TypingUnderLoadResult> typing = ReadTyping(flags, 2, 30);
    run = [=](const ObsConfig* obs, bool print) {
      TypingUnderLoadResult r = typing(obs);
      if (print) {
        std::printf("typing on %s: avg stall %.1f ms, max %.1f ms\n", r.os_name.c_str(),
                    r.avg_stall_ms, r.max_stall_ms);
      }
      return std::move(r.slo);
    };
  } else if (experiment == "e2e") {
    Experiment<EndToEndResult> e2e = ReadEndToEnd(flags);
    run = [=](const ObsConfig* obs, bool print) {
      EndToEndResult r = e2e(obs);
      if (print) {
        std::printf("e2e on %s: total %.2f ms over %lld updates\n", r.os_name.c_str(),
                    r.total_ms, static_cast<long long>(r.updates));
      }
      return std::move(r.slo);
    };
  } else if (experiment == "chaos") {
    OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
    ChaosOptions opt = ReadChaos(flags);
    opt.loss_rate = flags.GetDouble("loss", 0.05);
    int flap = static_cast<int>(IntAtLeast(flags, "flap-ms", 0, 0));
    if (flap > 0) {
      opt.flap_duration = Duration::Millis(flap);
    }
    run = [=](const ObsConfig* obs, bool print) {
      ChaosPoint r = RunChaosPoint(profile, opt, obs);
      if (print) {
        std::printf("chaos on %s (loss %.1f%%, flap %.0f ms): p50 %.2f ms, p99 %.2f ms, "
                    "availability %.3f\n",
                    r.os_name.c_str(), r.loss_rate * 100.0, r.flap_ms, r.p50_ms, r.p99_ms,
                    r.faults.availability);
      }
      return std::move(r.slo);
    };
  } else if (experiment == "consolidation") {
    OsProfile profile = ParseOs(flags, flags.GetString("os", "tse"));
    ConsolidationOptions opt;
    opt.users = static_cast<int>(flags.GetInt("users", 8));
    opt.duration = Duration::Seconds(flags.GetInt("seconds", 30));
    opt.seed = Seed(flags);
    opt.sinks = static_cast<int>(flags.GetInt("sinks", 0));
    opt.burst_cpu = Duration::Millis(flags.GetInt("burst-ms", 300));
    opt.burst_period = Duration::Millis(flags.GetInt("burst-every-ms", 5000));
    opt.ram = Bytes::MiB(flags.GetInt("ram-mib", 64));
    run = [=](const ObsConfig* obs, bool print) {
      ConsolidationResult r = RunConsolidation(profile, opt, obs);
      if (print) {
        std::printf("consolidation on %s with %d users: worst p99 stall %.1f ms, CPU "
                    "%.1f%%\n",
                    r.os_name.c_str(), r.users, r.worst_p99_stall_ms,
                    r.cpu_utilization * 100.0);
      }
      return std::move(r.slo);
    };
  } else {
    flags.Fail("needs an experiment (typing|e2e|chaos|consolidation), got '" + experiment +
               "'");
  }
  int64_t rewind_ms = IntAtLeast(flags, "rewind-ms", 0, 0);
  std::string rewind_out;
  if (rewind_ms > 0) {
    rewind_out = flags.GetString("rewind-out",
                                 spec.out_dir.empty()
                                     ? spec.name + ".rewind.trace.json"
                                     : spec.out_dir + "/" + spec.name + ".rewind.trace.json");
  }

  return [=] {
    if (!MakePostmortemDir(spec)) {
      return 2;
    }
    ObsConfig obs;
    obs.slo = &spec;
    SloReport slo = run(&obs, /*print=*/true);
    if (rewind_ms > 0) {
      if (int rc = Rewind(run, spec, slo, rewind_ms, rewind_out); rc != 0) {
        return rc;
      }
    }
    PrintSloReport(slo, "");
    std::printf("SLO %s\n", slo.passed ? "PASSED" : "FAILED");
    return 0;
  };
}

uint32_t ParseCategories(FlagSet& flags, const std::string& list) {
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
      flags.Fail("unknown --categories entry '" + word +
                 "' (sim|cpu|sched|mem|net|proto|session|fault|blame|all)");
    }
  }
  return out;
}

template <typename Result>
Experiment<std::string> AsJson(Experiment<Result> run) {
  return [run](const ObsConfig* obs) { return ToJson(run(obs)); };
}

// Runs one experiment observed: writes a Perfetto-loadable Chrome trace, the sampled
// gauge series as CSV, and the experiment's JSON report. The trace is byte-identical for
// a given seed.
Runner Trace(FlagSet& flags) {
  std::string experiment = flags.Positional(1);
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
  if (!categories.empty()) {
    tracer_cfg.categories = ParseCategories(flags, categories);
  }
  std::string trace_path = flags.GetString("out", "trace.json");
  std::string metrics_path = flags.GetString("metrics-out", "metrics.csv");
  std::string report_path = flags.GetString("report-out", "report.json");

  // Server experiments also attribute: their reports carry the blame block and the trace
  // carries per-interaction flow spans across the blame tracks. Protocol-only
  // experiments (traffic, gif) have no keystroke pipeline, so no engine (and no empty
  // blame tracks) for them.
  bool server_experiment = true;
  Experiment<std::string> report;
  if (experiment == "typing") {
    report = AsJson(ReadTyping(flags, 2, 30));
  } else if (experiment == "paging") {
    report = AsJson(ReadPaging(flags, 3));
  } else if (experiment == "e2e") {
    report = AsJson(ReadEndToEnd(flags));
  } else if (experiment == "sizing") {
    report = AsJson(ReadSizing(flags));
  } else if (experiment == "traffic") {
    server_experiment = false;
    ProtocolKind kind = ParseProtocol(flags, flags.GetString("protocol", "rdp"));
    uint64_t seed = Seed(flags);
    int steps = static_cast<int>(IntAtLeast(flags, "steps", 600, 1));
    report = [=](const ObsConfig* obs) {
      return ToJson(RunAppWorkloadTraffic(kind, seed, steps, obs));
    };
  } else if (experiment == "gif") {
    server_experiment = false;
    ProtocolKind kind = ParseProtocol(flags, flags.GetString("protocol", "rdp"));
    GifAnimationOptions opt = ReadGif(flags);
    opt.seed = Seed(flags);
    report = [=](const ObsConfig* obs) { return ToJson(RunGifAnimation(kind, opt, obs)); };
  } else {
    flags.Fail("needs an experiment (typing|paging|e2e|sizing|traffic|gif), got '" +
               experiment + "'");
  }

  return [=] {
    Tracer tracer(tracer_cfg);
    MetricsRegistry metrics;
    std::string sampler_csv;
    ObsConfig obs;
    obs.tracer = &tracer;
    obs.metrics = &metrics;
    obs.sampler_csv = &sampler_csv;
    std::unique_ptr<LatencyAttribution> attribution;
    if (server_experiment) {
      AttributionConfig attr_cfg;
      attr_cfg.tracer = &tracer;
      attribution = std::make_unique<LatencyAttribution>(attr_cfg);
      obs.attribution = attribution.get();
    }
    std::string json = report(&obs);
    if (!WriteFile(trace_path, tracer.ToJson()) || !WriteFile(metrics_path, sampler_csv) ||
        !WriteFile(report_path, json + "\n")) {
      return 1;
    }
    std::printf("%s: %zu trace events on %zu tracks -> %s; gauges -> %s; report -> %s\n",
                experiment.c_str(), tracer.event_count(), tracer.track_count(),
                trace_path.c_str(), metrics_path.c_str(), report_path.c_str());
    return 0;
  };
}

// Replays a recorded interaction trace (src/workload/script_io.h) through the
// protocol-only harness the traffic experiments use.
Runner Replay(FlagSet& flags) {
  std::string path = flags.Positional(1);
  ProtocolKind kind = ParseProtocol(flags, flags.GetString("protocol", "rdp"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  std::optional<AppScript> script = ParseScript(buffer.str(), &error);
  if (path.empty()) {
    flags.Fail("needs a trace file");
  } else if (!in) {
    flags.Fail("cannot open " + path);
  } else if (!script) {
    flags.Fail("parse error: " + error);
  }

  return [=] {
    ProtocolHarness harness(kind, 1);
    script->Replay(harness.sim, harness.protocol());
    harness.sim.RunUntil(TimePoint::Zero() + script->TotalDuration());
    harness.Drain();
    const ProtoTap& tap = harness.tap;
    std::printf("replayed '%s' (%zu steps, %s of user time) over %s:\n",
                script->name().c_str(), script->steps().size(),
                script->TotalDuration().ToString().c_str(), ProtocolName(kind));
    std::printf("  display: %lld msgs, %lld bytes;  input: %lld msgs, %lld bytes\n",
                static_cast<long long>(tap.messages(Channel::kDisplay)),
                static_cast<long long>(tap.counted_bytes(Channel::kDisplay).count()),
                static_cast<long long>(tap.messages(Channel::kInput)),
                static_cast<long long>(tap.counted_bytes(Channel::kInput).count()));
    return 0;
  };
}

Runner Paper(FlagSet& flags) {
  std::string artifact = flags.Positional(1);
  return [=] { return RunPaper(artifact); };
}

void PrintHelp(FILE* out);

Runner Help(FlagSet&) {
  return [] {
    PrintHelp(stdout);
    return 0;
  };
}

// ---------------------------------------------------------------------------

struct Command {
  const char* name;
  Runner (*read)(FlagSet&);
  const char* usage;  // arguments and flags, with their defaults
  const char* summary;
};

const Command kCommands[] = {
    {"idle", Idle, "[--os=tse|linux|ntws|svr4 --seconds=60 --csv]",
     "idle-state CPU profile (Figures 1-2)"},
    {"typing", Typing, "[--os=tse --sinks=0 --seconds=60 --cpus=1 --seed=1]",
     "keystroke stall vs CPU sinks (Figure 3)"},
    {"paging", Paging, "[--os=linux --runs=10 --full-demand=true --protect --seed=1]",
     "keystroke after a memory hog (§5.2)"},
    {"traffic", Traffic, "[--protocol=rdp|x|lbx|slim|vnc --steps=600 --csv]",
     "application-workload bytes per channel (§6.1.2)"},
    {"webpage", Webpage, "[--no-banner --no-marquee --seconds=160]",
     "the Figure 4 webpage over RDP"},
    {"gif", Gif, "[--protocol=rdp --frames=10 --seconds=20 --loop-aware]",
     "looping animation over a protocol (Figures 5, 7)"},
    {"rtt", Rtt, "[--mbps=0 --seconds=60]", "ping RTT under offered load (Figures 8-9)"},
    {"sizing", Sizing, "[--os=tse --users=10 --seconds=30 --seed=1]",
     "CPU utilization vs latency for N users"},
    {"e2e", E2e,
     "[--os=tse --sinks=0 --background-mbps=0 --client=pc|winterm|handheld --loss=0\n"
     "      --seconds=30 --seed=1]",
     "end-to-end keystroke latency by leg"},
    {"sweep", Sweep,
     "[--experiment=typing|sizing|e2e --os=all|tse,linux,... --seconds=30 --jobs=0\n"
     "      --seed=1 --csv]  typing, e2e: [--sinks=0,2,5,10 --slo-*]\n"
     "      e2e: [--background-mbps=0]  sizing: [--users=2,4,8,16]",
     "parallel OS x load grid of typing, sizing or e2e runs"},
    {"capacity", Capacity,
     "[--os=tse,linux(:protocol) --max-users=16 --max-util=0.85 --max-p99-ms=100\n"
     "      --seconds=30 --sinks=0 --burst-ms=300 --burst-every-ms=5000 --ram-mib=64\n"
     "      --jobs=0 --seed=1 --slo-* --report-out=FILE --csv]",
     "admitted users under utilization vs latency sizing"},
    {"chaos", Chaos,
     "[--os=tse --loss=0,0.01,0.05 --flap-ms=0,50 --flap-every-ms=2000 --disk-stall=0\n"
     "      --disconnect-ms=0 --sinks=0 --seconds=30 --threshold-ms=150 --jobs=0\n"
     "      --seed=1 --slo-* --report-out=FILE --csv]",
     "fault-injection sweep: loss x link flaps"},
    {"wan", Wan,
     "[--os=tse --profile=dsl,lte,satellite,congested-office --users=3 --seconds=30\n"
     "      --threshold-ms=150 --starve-after-ms=1000 --jobs=0 --seed=1 --slo-*\n"
     "      --report-out=FILE --csv]",
     "WAN profiles with graceful degradation off vs on"},
    {"whatif", WhatIf,
     "[--os=tse --profile=lte --component=all|link,cpu,disk,rtt --speedup=2\n"
     "      --rtt-delta-ms=40 --degrade --users=3 --seconds=30 --jobs=0 --seed=1\n"
     "      --report-out=FILE --csv]",
     "predicted vs achieved p99 of faster components"},
    {"blame", Blame,
     "[--os=tse,linux,linux:lbx --sinks=0,5 --profile=WAN --background-mbps=0 --loss=0\n"
     "      --flap-ms=0 --threshold-ms=100 --seconds=30 --jobs=0 --seed=1\n"
     "      --report-out=FILE --csv]",
     "per-stage latency attribution per OS x sinks"},
    {"postmortem", Postmortem,
     "typing|e2e|chaos|consolidation [--slo-*] [--rewind-ms=0] [the experiment's flags]\n"
     "      typing: as `typing`, but --sinks=2 --seconds=30   e2e: as `e2e`\n"
     "      chaos: [--os=tse --loss=0.05 --flap-ms=0 --flap-every-ms=2000 --disk-stall=0\n"
     "      --disconnect-ms=0 --sinks=0 --seconds=30 --seed=1]\n"
     "      consolidation: [--os=tse --users=8 --seconds=30 --seed=1 --sinks=0\n"
     "      --burst-ms=300 --burst-every-ms=5000 --ram-mib=64]\n"
     "      --rewind-ms=N: re-run a violation traced from N ms before it\n"
     "      [--rewind-out=<postmortem-dir>/<experiment>.rewind.trace.json]",
     "one run under an SLO (default --slo-p99-ms=100 --slo-availability=0.99)"},
    {"trace", Trace,
     "typing|paging|e2e|sizing|traffic|gif [--out=trace.json --metrics-out=metrics.csv\n"
     "      --report-out=report.json --categories=all|sim,cpu,sched,mem,net,proto,\n"
     "      session,fault,blame] [the experiment's flags]\n"
     "      typing: as `typing`, but --sinks=2 --seconds=30   paging: as `paging`, but\n"
     "      --runs=3   e2e, sizing: as the command   traffic: [--protocol=rdp\n"
     "      --steps=600 --seed=1]   gif: as `gif`, plus --seed=1",
     "one observed run: Perfetto trace, gauges CSV, JSON report"},
    {"replay", Replay, "<trace-file> [--protocol=rdp]", "replay a recorded session"},
    {"paper", Paper, "[artifact]", "the paper's tables and figures, one or all"},
    {"help", Help, "", "this list"},
};

void PrintHelp(FILE* out) {
  std::fprintf(out,
               "tcsctl — thin-client latency framework driver\n"
               "usage: tcsctl <command> [arguments] [flags]\n\n");
  for (const Command& c : kCommands) {
    std::fprintf(out, "  %-11s %s\n", c.name, c.summary);
    if (*c.usage != '\0') {
      std::fprintf(out, "      %s\n", c.usage);
    }
  }
  std::fprintf(out,
               "\n--slo-* is --slo-p99-ms=MS --slo-availability=X --slo-backlog-kb=KB\n"
               "--slo-starved=X --postmortem-dir=postmortems\n");
}

int Main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  std::string name = flags.Positional(0);
  for (const Command& c : kCommands) {
    if (name == c.name) {
      Runner run = c.read(flags);
      if (!flags.Check()) {
        std::fprintf(stderr, "tcsctl %s: %s\nusage: tcsctl %s %s\n", c.name,
                     flags.error().c_str(), c.name, c.usage);
        return 2;
      }
      return run();
    }
  }
  if (!name.empty()) {
    std::fprintf(stderr, "unknown command '%s'\n", name.c_str());
  }
  PrintHelp(stderr);
  return 2;
}

}  // namespace
}  // namespace tcs

int main(int argc, char** argv) {
  try {
    return tcs::Main(argc, argv);
  } catch (const tcs::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
