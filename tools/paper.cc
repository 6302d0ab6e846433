// The paper's evaluation as one table: every figure, table, ablation and extension is a
// row naming the artifact, the banner and paper note it prints, and the function that
// measures it. `tcsctl paper [artifact]` runs one row, or every row in table order;
// tests/golden/paper/<artifact>.txt pins each artifact's bytes, and EXPERIMENTS.md sets
// the measured numbers against the paper's.

#include "tools/paper.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/metrics/latency.h"
#include "src/proto/protocol_pipeline.h"
#include "src/proto/x_protocol.h"
#include "src/session/server.h"
#include "src/sim/periodic.h"
#include "src/util/table.h"
#include "tools/grid.h"

namespace tcs {
namespace {

// Figure 1: idle-state processor activity in NT Workstation, TSE, and Linux.
// Prints CPU utilization per 100 ms bucket over a 10 s trace for each OS, plus the
// aggregate comparison the paper quotes (TSE ~ 3x NT ~ 7x Linux).
void Fig1IdleCpu(std::string& out) {
  IdleProfileResult nt = RunIdleProfile(OsProfile::NtWorkstation(), Duration::Seconds(10));
  IdleProfileResult tse = RunIdleProfile(OsProfile::Tse(), Duration::Seconds(10));
  IdleProfileResult lin = RunIdleProfile(OsProfile::LinuxX(), Duration::Seconds(10));

  TextTable table({"time (s)", "NT Workstation", "NT TSE", "Linux"});
  for (size_t i = 0; i < nt.utilization.size(); ++i) {
    table.AddRow({TextTable::Fixed(0.1 * static_cast<double>(i), 1),
                  TextTable::Fixed(nt.utilization[i], 3),
                  TextTable::Fixed(i < tse.utilization.size() ? tse.utilization[i] : 0, 3),
                  TextTable::Fixed(i < lin.utilization.size() ? lin.utilization[i] : 0, 3)});
  }
  out += table.Render() + "\n";

  // Aggregate over a longer window for stable ratios.
  IdleProfileResult nt10 = RunIdleProfile(OsProfile::NtWorkstation(), Duration::Seconds(600));
  IdleProfileResult tse10 = RunIdleProfile(OsProfile::Tse(), Duration::Seconds(600));
  IdleProfileResult lin10 = RunIdleProfile(OsProfile::LinuxX(), Duration::Seconds(600));
  out += Format("aggregate idle busy over 600 s:  NT=%s  TSE=%s  Linux=%s\n",
                nt10.total_busy.ToString().c_str(), tse10.total_busy.ToString().c_str(),
                lin10.total_busy.ToString().c_str());
  out += Format("ratios: TSE/NT = %.2f (paper ~3)   TSE/Linux = %.2f (paper ~7)\n",
                tse10.total_busy / nt10.total_busy, tse10.total_busy / lin10.total_busy);
}

// Figure 2: cumulative idle-state latency vs event duration (NT, TSE, Linux).
// For each OS, prints the lost-time curve: x = event length, y = cumulative CPU time of
// all events no longer than x, over a 10-minute idle trace.
double CumulativeAt(const IdleProfileResult& r, Duration x) {
  double cum = 0.0;
  for (const auto& pt : r.cumulative) {
    if (pt.event_length <= x) {
      cum = pt.cumulative_latency.ToSecondsF();
    }
  }
  return cum;
}

void Fig2CumulativeLatency(std::string& out) {
  IdleProfileResult nt = RunIdleProfile(OsProfile::NtWorkstation(), Duration::Seconds(600));
  IdleProfileResult tse = RunIdleProfile(OsProfile::Tse(), Duration::Seconds(600));
  IdleProfileResult lin = RunIdleProfile(OsProfile::LinuxX(), Duration::Seconds(600));

  TextTable table({"event length (ms)", "NT TSE (s)", "NT Workstation (s)", "Linux (s)"});
  for (int ms : {0, 1, 5, 10, 25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 600}) {
    Duration x = Duration::Millis(ms);
    table.AddRow({TextTable::Num(ms), TextTable::Fixed(CumulativeAt(tse, x), 2),
                  TextTable::Fixed(CumulativeAt(nt, x), 2),
                  TextTable::Fixed(CumulativeAt(lin, x), 2)});
  }
  out += table.Render() + "\n";
  out += Format("totals: TSE=%.2fs NT=%.2fs Linux=%.2fs (paper: ~45 / ~15 / ~6.5)\n",
                tse.total_busy.ToSecondsF(), nt.total_busy.ToSecondsF(),
                lin.total_busy.ToSecondsF());
}

// Figure 3: average stall length experienced by a typing user vs scheduler queue length.
// 20 Hz character repeat against 0..50 sinks; also includes the Evans et al. SVR4
// interactive scheduler as the "what good looks like" extension.
void Fig3StallVsLoad(std::string& out) {
  TextTable table({"sinks", "TSE avg stall (ms)", "TSE jitter", "Linux avg stall (ms)",
                   "Linux jitter", "SVR4-IA avg stall (ms)"});
  for (int sinks : {0, 1, 2, 5, 8, 10, 12, 15, 20, 25, 30, 40, 50}) {
    TypingUnderLoadResult lin =
        RunTypingUnderLoad(OsProfile::LinuxX(), sinks, Duration::Seconds(60));
    TypingUnderLoadResult svr4 =
        RunTypingUnderLoad(OsProfile::LinuxSvr4(), sinks, Duration::Seconds(60));
    std::string tse_stall = "(unusable)";
    std::string tse_jitter = "-";
    if (sinks <= 15) {
      // "The data for TSE stops at 15 load units because at that point the system became
      // barely usable at the console."
      TypingUnderLoadResult tse =
          RunTypingUnderLoad(OsProfile::Tse(), sinks, Duration::Seconds(60));
      tse_stall = TextTable::Fixed(tse.avg_stall_ms, 1);
      tse_jitter = TextTable::Fixed(tse.jitter_ms, 1);
    }
    table.AddRow({TextTable::Num(sinks), tse_stall, tse_jitter,
                  TextTable::Fixed(lin.avg_stall_ms, 1), TextTable::Fixed(lin.jitter_ms, 1),
                  TextTable::Fixed(svr4.avg_stall_ms, 1)});
  }
  out += table.Render() + "\n";
}

// §5.1.1 tables: per-login compulsory memory (process lists) and idle system memory.
void PrintLogin(std::string& out, const SessionMemoryResult& r) {
  out += Format("%s%s login:\n", r.os_name.c_str(), r.light ? " (light)" : "");
  TextTable table({"process", "private KB"});
  for (const auto& row : r.processes) {
    table.AddRow({row.process, TextTable::Num(row.private_memory.count() / 1024)});
  }
  table.AddRow({"Total", TextTable::Num(r.total.count() / 1024)});
  out += table.Render();
  out += Format("measured resident after login: %s (spec total %s)\n\n",
                r.measured_resident.ToString().c_str(), r.total.ToString().c_str());
}

void TableSessionMemory(std::string& out) {
  SessionMemoryResult lin = MeasureSessionMemory(OsProfile::LinuxX(), false);
  SessionMemoryResult tse = MeasureSessionMemory(OsProfile::Tse(), false);
  SessionMemoryResult tse_light = MeasureSessionMemory(OsProfile::Tse(), true);

  out += Format("idle system memory: Linux=%s  TSE=%s\n\n", lin.idle_system.ToString().c_str(),
                tse.idle_system.ToString().c_str());
  PrintLogin(out, lin);
  PrintLogin(out, tse);
  PrintLogin(out, tse_light);
}

// §5.2 table: keystroke response latency after memory pressure (page demand < 100% vs
// >= 100%), min/avg/max over ten runs per OS. Responses under the 50 ms display period
// are reported as "50" as in the paper's measurement floor.
std::string Floor50(double ms) {
  return TextTable::Num(static_cast<int64_t>(std::max(ms, 50.0)));
}

void TablePaging(std::string& out) {
  TextTable table({"OS", "demand", "min", "avg", "max"});
  std::vector<PagingLatencyResult> full;  // the >= 100% rows: Linux, then TSE
  for (const OsProfile& profile : {OsProfile::LinuxX(), OsProfile::Tse()}) {
    PagingLatencyResult lo = RunPagingLatency(profile, /*full_demand=*/false, 10);
    PagingLatencyResult hi = RunPagingLatency(profile, /*full_demand=*/true, 10);
    table.AddRow({profile.name, "< 100%", Floor50(lo.min_ms), Floor50(lo.avg_ms),
                  Floor50(lo.max_ms)});
    table.AddRow({profile.name, ">= 100%", Floor50(hi.min_ms), Floor50(hi.avg_ms),
                  Floor50(hi.max_ms)});
    full.push_back(std::move(hi));
  }
  out += table.Render() + "\n";

  out += Format("avg vs 100 ms perception threshold: Linux %.0fx (paper ~11x), TSE %.0fx "
                "(paper ~40x)\n",
                full[0].avg_ms / 100.0, full[1].avg_ms / 100.0);
}

// §6.1.2 table: byte and message counts per channel for RDP, X, and LBX on the typical
// application workload (word processor + photo editor + control panel scripts).
void TableProtocolTraffic(std::string& out) {
  ProtocolTrafficResult rdp = RunAppWorkloadTraffic(ProtocolKind::kRdp);
  ProtocolTrafficResult x = RunAppWorkloadTraffic(ProtocolKind::kX);
  ProtocolTrafficResult lbx = RunAppWorkloadTraffic(ProtocolKind::kLbx);

  TextTable bytes({"", "RDP", "X", "LBX"});
  bytes.AddRow({"Bytes input", TextTable::Num(rdp.input.bytes), TextTable::Num(x.input.bytes),
                TextTable::Num(lbx.input.bytes)});
  bytes.AddRow({"Bytes display", TextTable::Num(rdp.display.bytes),
                TextTable::Num(x.display.bytes), TextTable::Num(lbx.display.bytes)});
  bytes.AddRow({"Bytes total", TextTable::Num(rdp.total_bytes), TextTable::Num(x.total_bytes),
                TextTable::Num(lbx.total_bytes)});
  bytes.AddRow({"Messages input", TextTable::Num(rdp.input.messages),
                TextTable::Num(x.input.messages), TextTable::Num(lbx.input.messages)});
  bytes.AddRow({"Messages display", TextTable::Num(rdp.display.messages),
                TextTable::Num(x.display.messages), TextTable::Num(lbx.display.messages)});
  bytes.AddRow({"Messages total", TextTable::Num(rdp.total_messages),
                TextTable::Num(x.total_messages), TextTable::Num(lbx.total_messages)});
  bytes.AddRow({"Avg. message size", TextTable::Fixed(rdp.avg_message_size, 2),
                TextTable::Fixed(x.avg_message_size, 2),
                TextTable::Fixed(lbx.avg_message_size, 2)});
  out += bytes.Render() + "\n";

  out += Format("RDP / X bytes     = %s (paper < 15%%)\n",
                TextTable::Percent(static_cast<double>(rdp.total_bytes) /
                                   static_cast<double>(x.total_bytes)).c_str());
  out += Format("RDP / LBX bytes   = %s (paper < 30%%)\n",
                TextTable::Percent(static_cast<double>(rdp.total_bytes) /
                                   static_cast<double>(lbx.total_bytes)).c_str());
  out += Format("LBX / X bytes     = %s (paper ~51%%)\n",
                TextTable::Percent(static_cast<double>(lbx.total_bytes) /
                                   static_cast<double>(x.total_bytes)).c_str());
  out += Format("LBX / X display messages = %.2fx (paper ~1.8x)\n",
                static_cast<double>(lbx.display.messages) /
                    static_cast<double>(x.display.messages));
}

// §6.1.2 VIP table: byte savings from eliding the 20-byte IP header per packet (the
// x-kernel virtual-IP scheme) for each protocol on the application workload.
void TableVip(std::string& out) {
  TextTable table({"", "RDP", "X", "LBX"});
  ProtocolTrafficResult results[] = {RunAppWorkloadTraffic(ProtocolKind::kRdp),
                                     RunAppWorkloadTraffic(ProtocolKind::kX),
                                     RunAppWorkloadTraffic(ProtocolKind::kLbx)};
  table.AddRow({"Normal Bytes", TextTable::Num(results[0].total_bytes),
                TextTable::Num(results[1].total_bytes),
                TextTable::Num(results[2].total_bytes)});
  table.AddRow({"Bytes w/ VIP", TextTable::Num(results[0].vip_bytes),
                TextTable::Num(results[1].vip_bytes), TextTable::Num(results[2].vip_bytes)});
  auto savings = [](const ProtocolTrafficResult& r) {
    return TextTable::Percent(static_cast<double>(r.total_bytes - r.vip_bytes) /
                                  static_cast<double>(r.total_bytes),
                              2);
  };
  table.AddRow({"Savings", savings(results[0]), savings(results[1]), savings(results[2])});
  out += table.Render() + "\n";

  double lbx_vip = static_cast<double>(results[2].vip_bytes);
  double rdp_normal = static_cast<double>(results[0].total_bytes);
  out += Format("LBX-with-VIP / RDP-without = %.2fx (paper: > 2x)\n", lbx_vip / rdp_normal);
}

// §6.1.1: compulsory network load — session negotiation/initialization bytes per
// protocol, and the (absence of) idle traffic once a session is up.
void TableSetupBytes(std::string& out) {
  TextTable table({"protocol", "session setup bytes"});
  table.AddRow({"RDP (TSE)", TextTable::Num(SessionSetupBytes(ProtocolKind::kRdp).count())});
  table.AddRow({"X (Linux)", TextTable::Num(SessionSetupBytes(ProtocolKind::kX).count())});
  table.AddRow({"LBX", TextTable::Num(SessionSetupBytes(ProtocolKind::kLbx).count())});
  out += table.Render() + "\n";

  // Idle traffic after login: run a logged-in but untouched session for a minute.
  for (OsProfile profile : {OsProfile::Tse(), OsProfile::LinuxX()}) {
    Simulator sim;
    Server server(sim, profile);
    server.StartDaemons();
    server.Login();
    Bytes after_setup = server.link().bytes_carried();
    sim.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
    Bytes idle_traffic = server.link().bytes_carried() - after_setup;
    out += Format("%s: idle-session traffic over 60 s = %s (paper: none)\n",
                  profile.name.c_str(), idle_traffic.ToString().c_str());
  }
}

// Figure 4: network load over time for the synthetic msnbc.com-style webpage over RDP —
// marquee+banner combined, marquee only, banner only. The combined page overflows the
// client bitmap cache and costs orders of magnitude more than the sum of its parts.
void Fig4Webpage(std::string& out) {
  AnimationLoadResult combined =
      RunWebPageLoad(ProtocolKind::kRdp, /*banner=*/true, /*marquee=*/true);
  AnimationLoadResult marquee =
      RunWebPageLoad(ProtocolKind::kRdp, /*banner=*/false, /*marquee=*/true);
  AnimationLoadResult banner =
      RunWebPageLoad(ProtocolKind::kRdp, /*banner=*/true, /*marquee=*/false);

  TextTable table({"time (s)", "marquee+banner", "marquee only", "banner only"});
  for (size_t i = 0; i < combined.load_mbps.size(); i += 5) {
    table.AddRow({TextTable::Num(static_cast<int64_t>(i)),
                  TextTable::Fixed(combined.load_mbps[i], 4),
                  TextTable::Fixed(i < marquee.load_mbps.size() ? marquee.load_mbps[i] : 0, 4),
                  TextTable::Fixed(i < banner.load_mbps.size() ? banner.load_mbps[i] : 0, 4)});
  }
  out += table.Render() + "\n";

  out += Format("sustained: combined=%.3f Mbps (paper 1.60)  marquee=%.3f (paper 0.07)  "
                "banner=%.3f (paper 0.01)\n",
                combined.sustained_mbps, marquee.sustained_mbps, banner.sustained_mbps);
  out += Format("non-linearity: combined / (marquee + banner) = %.0fx\n",
                combined.sustained_mbps / (marquee.sustained_mbps + banner.sustained_mbps));
  out += Format("cache: combined %lld hits / %lld misses; marquee alone %lld / %lld\n",
                static_cast<long long>(combined.cache_hits),
                static_cast<long long>(combined.cache_misses),
                static_cast<long long>(marquee.cache_hits),
                static_cast<long long>(marquee.cache_misses));
  out += Format("five users on such a page saturate 10 Mbps Ethernet: %.1f Mbps offered\n",
                5.0 * combined.sustained_mbps);
}

// Figure 5: network load generated by a 10-frame, 20 Hz animated GIF in a browser over
// X, LBX, and RDP. X and LBX re-send pixels every frame; RDP's bitmap cache serves
// repeats with tiny orders after the first loop.
void Fig5Gif(std::string& out) {
  GifAnimationOptions opt;
  opt.bucket = Duration::Millis(100);
  opt.duration = Duration::Seconds(20);
  AnimationLoadResult x = RunGifAnimation(ProtocolKind::kX, opt);
  AnimationLoadResult lbx = RunGifAnimation(ProtocolKind::kLbx, opt);
  AnimationLoadResult rdp = RunGifAnimation(ProtocolKind::kRdp, opt);

  TextTable table({"time (ms)", "X", "LBX", "RDP"});
  for (size_t i = 0; i < 40 && i < x.load_mbps.size(); i += 2) {
    table.AddRow({TextTable::Num(static_cast<int64_t>(i) * 100),
                  TextTable::Fixed(x.load_mbps[i], 3), TextTable::Fixed(lbx.load_mbps[i], 3),
                  TextTable::Fixed(rdp.load_mbps[i], 3)});
  }
  out += table.Render() + "\n";
  out += Format("sustained: X=%.3f Mbps  LBX=%.3f Mbps  RDP=%.3f Mbps\n", x.sustained_mbps,
                lbx.sustained_mbps, rdp.sustained_mbps);
  out += Format("RDP cache after warm-up: %lld hits / %lld misses\n",
                static_cast<long long>(rdp.cache_hits),
                static_cast<long long>(rdp.cache_misses));
}

// Figure 6: CPU utilization and cumulative bitmap-cache hit ratio for a 66-frame looping
// animation that overflows the 1.5 MB cache. The hit ratio (seeded high by the session's
// UI rasters) decays asymptotically toward zero while the server keeps re-encoding.
void Fig6CacheOverflow(std::string& out) {
  CacheOverflowResult r = RunCacheOverflow(66, Duration::Seconds(60));
  TextTable table({"time (s)", "cache hit ratio (%)", "CPU utilization (%)"});
  for (size_t i = 0; i < r.cpu_utilization.size() && i < r.cumulative_hit_ratio.size();
       i += 2) {
    table.AddRow({TextTable::Num(static_cast<int64_t>(i) + 1),
                  TextTable::Fixed(r.cumulative_hit_ratio[i] * 100.0, 1),
                  TextTable::Fixed(r.cpu_utilization[i] * 100.0, 1)});
  }
  out += table.Render() + "\n";
  out += Format("hit ratio: start=%.1f%%  end=%.1f%% (monotone decay)\n",
                r.cumulative_hit_ratio.front() * 100.0, r.cumulative_hit_ratio.back() * 100.0);
  out += Format("CPU utilization at t=30s: %.1f%%, at t=59s: %.1f%% (never falls)\n",
                r.cpu_utilization[30] * 100.0, r.cpu_utilization[58] * 100.0);
}

// Figure 7: network load vs animation frame count (25..100) — the bitmap-cache size made
// visible. Loops whose frames fit the 1.5 MB cache cost ~0.01 Mbps; one frame more and
// LRU misses on every frame, costing the full-transfer bandwidth (~0.96 Mbps).
AnimationLoadResult RunLoop(int frames, CachePolicy policy = CachePolicy::kLru) {
  GifAnimationOptions opt;
  opt.frames = frames;
  opt.frame_period = Duration::Millis(200);
  opt.width = 200;
  opt.height = 150;
  opt.compression_ratio = 0.8;  // 30 000 raw -> 24 000 compressed bytes per frame
  opt.duration = Duration::Seconds(60);
  opt.cache_policy = policy;
  return RunGifAnimation(ProtocolKind::kRdp, opt);
}

void Fig7CacheKnee(std::string& out) {
  TextTable table({"frames", "network load (Mbps)"});
  for (int frames = 25; frames <= 100; frames += 5) {
    table.AddRow({TextTable::Num(frames), TextTable::Fixed(RunLoop(frames).sustained_mbps, 3)});
  }
  // The exact cliff.
  for (int frames : {64, 65, 66, 67}) {
    out += Format("cliff detail: %d frames -> %.3f Mbps\n", frames,
                  RunLoop(frames).sustained_mbps);
  }
  out += "\n" + table.Render() + "\n";
}

// Figures 8 and 9: network round-trip time, and its variance (jitter), as a function of
// offered load — 64-byte pings (the size of a typical input-channel message) against
// Poisson background traffic on a shared 10 Mbps link, 60 s per load level.
void RttVsLoad(std::string& out, const char* header, double RttProbeResult::*column,
               int precision) {
  TextTable table({"offered load (Mbps)", header});
  for (double mbps : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.5, 9.0, 9.3, 9.6}) {
    RttProbeResult r = RunRttProbe(mbps);
    table.AddRow({TextTable::Fixed(mbps, 1), TextTable::Fixed(r.*column, precision)});
  }
  out += table.Render() + "\n";
}

void Fig8Rtt(std::string& out) {
  RttVsLoad(out, "mean RTT (ms)", &RttProbeResult::mean_rtt_ms, 2);
}

void Fig9Jitter(std::string& out) {
  RttVsLoad(out, "RTT variance (ms^2)", &RttProbeResult::rtt_variance, 3);
}

// Ablation A1 (§4.2.1 analysis): the boost "grace period" vs operation length. Sweeps
// quantum stretching (1..3) and CPU speed for the 500 ms maximize operation intersecting
// a 400 ms priority-13 daemon event; shows when the operation fits inside the boosted
// window (completes untouched) vs when it is stranded behind the daemon (the 900 ms case).
const std::vector<double> kSpeeds = {1.0, 1.5, 2.0, 2.5, 2.8, 3.0, 4.0, 5.5};
const int kStretches[] = {1, 2, 3};

void AblationBoost(std::string& out) {
  // One cell per CPU speed, rendering its row: the stretches run in turn.
  auto rows = Grid().Run(kSpeeds, [](double speed) {
    std::vector<std::string> row{TextTable::Fixed(speed, 1) + "x",
                                 TextTable::Fixed(500.0 / speed, 0)};
    for (int stretch : kStretches) {
      row.push_back(TextTable::Fixed(RunMaximizeScenario(stretch, speed).ToMillisF(), 0));
    }
    return row;
  });
  TextTable table({"CPU speed", "op length (ms)", "stretch=1", "stretch=2", "stretch=3"});
  for (const auto& [speed, row] : rows) {
    table.AddRow(row);
  }
  out += table.Render() + "\n";
  out += "reading: completion == op length -> fit inside the boost grace period;\n";
  out += "         completion ~= op length + 400 ms -> stranded behind the daemon.\n";
}

// Ablation A2 (§6.1.3 "Cache Pathology"): LRU vs the loop-aware eviction policy the paper
// calls for ("a more intelligent scheme capable of dealing with such animations might
// somehow detect loop patterns and adjust its eviction behavior accordingly").
const std::vector<int> kFrames = {25, 45, 60, 65, 66, 70, 80, 100};

void AblationCachePolicy(std::string& out) {
  // One cell per frame count, rendering its row: LRU, then loop-aware.
  auto rows = Grid().Run(kFrames, [](int frames) {
    AnimationLoadResult lru = RunLoop(frames);
    AnimationLoadResult loop = RunLoop(frames, CachePolicy::kLoopAware);
    return std::vector<std::string>{TextTable::Num(frames),
                                    TextTable::Fixed(lru.sustained_mbps, 3),
                                    TextTable::Fixed(loop.sustained_mbps, 3),
                                    TextTable::Fixed(lru.cumulative_hit_ratio * 100.0, 1),
                                    TextTable::Fixed(loop.cumulative_hit_ratio * 100.0, 1)};
  });
  TextTable table({"frames", "LRU (Mbps)", "loop-aware (Mbps)", "LRU hit %", "loop-aware hit %"});
  for (const auto& [frames, row] : rows) {
    table.AddRow(row);
  }
  out += table.Render() + "\n";
}

// Ablation A3 (§5.2): Evans et al.'s fix for the paging pathology — protect interactive
// address spaces from non-interactive faults and throttle streaming jobs under pressure.
// Re-runs the §5.2 keystroke-after-hog experiment under both eviction policies.
void AblationThrottle(std::string& out) {
  // One cell per profile and policy: global LRU, then protection, for each profile.
  struct Cell {
    OsProfile profile;
    EvictionPolicy policy;
    const char* label;
  };
  std::vector<Cell> cells;
  for (const OsProfile& profile : {OsProfile::LinuxX(), OsProfile::Tse()}) {
    cells.push_back({profile, EvictionPolicy::kGlobalLru, "global LRU"});
    cells.push_back({profile, EvictionPolicy::kInteractiveProtect, "interactive-protect"});
  }
  auto results = Grid().Run(cells, [](const Cell& c) {
    return RunPagingLatency(c.profile, true, 10, 1, c.policy);
  });
  TextTable table({"OS", "policy", "min (ms)", "avg (ms)", "max (ms)"});
  for (const auto& [cell, r] : results) {
    table.AddRow({cell.profile.name, cell.label, Floor50(r.min_ms), Floor50(r.avg_ms),
                  Floor50(r.max_ms)});
  }
  out += table.Render() + "\n";
}

// Ablation A4 (§3.1 / §7): utilization-based server sizing vs latency-based sizing.
//
// The paper criticizes vendor sizing white papers for "defining typical user profiles and
// reporting the load generated" while "uniformly ignoring the issue of user-perceived
// latency". This harness sizes the same server both ways: the white-paper criterion
// (CPU utilization under 85%) and the paper's criterion (average stall under the 100 ms
// perception threshold) — and shows how far apart the two capacity answers are.
const int kUsers[] = {2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32};

void AblationSizing(std::string& out) {
  // All profile x user-count sizing runs fan out together; the ceiling scan below reads
  // each profile's runs back in user-count order.
  struct Cell {
    OsProfile profile;
    int users;
  };
  std::vector<Cell> cells;
  for (const OsProfile& profile :
       {OsProfile::Tse(), OsProfile::LinuxX(), OsProfile::LinuxSvr4()}) {
    for (int users : kUsers) {
      cells.push_back({profile, users});
    }
  }
  auto points =
      Grid().Run(cells, [](const Cell& c) { return RunServerSizing(c.profile, c.users); });

  for (auto runs : GroupBy(points, [](const Cell& c) { return c.profile.name; })) {
    out += "--- " + runs[0].cell.profile.name + " ---\n";
    TextTable table({"users", "CPU util", "avg stall (ms)", "worst user (ms)",
                     "util verdict", "latency verdict"});
    int util_ceiling = 0;
    int latency_ceiling = 0;
    bool util_failed = false;
    bool latency_failed = false;
    for (const auto& [cell, p] : runs) {
      bool util_ok = p.cpu_utilization < 0.85;
      bool latency_ok = p.avg_stall_ms < kPerceptionThreshold.ToMillisF();
      if (util_ok && !util_failed) {
        util_ceiling = cell.users;
      } else {
        util_failed = true;
      }
      if (latency_ok && !latency_failed) {
        latency_ceiling = cell.users;
      } else {
        latency_failed = true;
      }
      table.AddRow({TextTable::Num(cell.users), TextTable::Percent(p.cpu_utilization, 1),
                    TextTable::Fixed(p.avg_stall_ms, 1),
                    TextTable::Fixed(p.worst_stall_ms, 1), util_ok ? "ok" : "OVER",
                    latency_ok ? "ok" : "OVER"});
    }
    out += table.Render();
    out += Format("capacity by utilization (<85%%): ~%d users;  by latency (<100 ms): ~%d "
                  "users\n\n",
                  util_ceiling, latency_ceiling);
  }
}

// §6.1.3, first paragraph: "Simple animations like blinking cursors and progress bars
// generate a harmless amount of traffic, generally less than 10KBps for short durations."
// This harness measures a blinking caret (2 Hz, a 2x16 rect) and a progress bar (4 Hz,
// a growing 300x12 fill) over each protocol against that bound.
double MeasureKBps(ProtocolKind kind, bool caret, bool progress) {
  ProtocolHarness harness(kind, 4);
  Simulator& sim = harness.sim;
  DisplayProtocol& protocol = harness.protocol();

  PeriodicTask caret_task(sim, Duration::Millis(500), [&] {
    protocol.SubmitDraw(DrawCommand::Rect(2, 16));
    protocol.Flush();
  });
  PeriodicTask progress_task(sim, Duration::Millis(250), [&] {
    protocol.SubmitDraw(DrawCommand::Rect(300, 12));
    protocol.SubmitDraw(DrawCommand::Text(6));  // "42%" label
    protocol.Flush();
  });
  if (caret) {
    caret_task.Start();
  }
  if (progress) {
    progress_task.Start(Duration::Millis(125));
  }
  Duration window = Duration::Seconds(60);
  sim.RunUntil(TimePoint::Zero() + window);
  caret_task.Stop();
  progress_task.Stop();
  return static_cast<double>(harness.tap.total_counted_bytes().count()) /
         window.ToSecondsF() / 1024.0;
}

void SimpleAnimations(std::string& out) {
  TextTable table({"protocol", "caret", "progress bar", "both", "verdict"});
  for (ProtocolKind kind : {ProtocolKind::kRdp, ProtocolKind::kX, ProtocolKind::kLbx,
                            ProtocolKind::kSlim, ProtocolKind::kVnc}) {
    double caret = MeasureKBps(kind, true, false);
    double bar = MeasureKBps(kind, false, true);
    double both = MeasureKBps(kind, true, true);
    table.AddRow({ProtocolName(kind), TextTable::Fixed(caret, 2), TextTable::Fixed(bar, 2),
                  TextTable::Fixed(both, 2), both < 10.0 ? "harmless" : "OVER 10 KB/s"});
  }
  out += table.Render() + "\n";
}

// Related-work comparison (§7): all five protocol models — RDP, X, LBX, plus the SLIM
// (SunRay) and VNC (RFB) models — on the application workload and on the Figure 5
// animation. The paper places SLIM "roughly equivalent in performance to X, still behind
// RDP and LBX in network load efficiency"; VNC is "yet another network protocol similar
// to SLIM".
void RelatedWork(std::string& out) {
  TextTable table({"protocol", "app workload bytes", "vs X", "messages", "avg msg",
                   "GIF sustained Mbps"});
  int64_t x_total = 0;
  for (ProtocolKind kind : {ProtocolKind::kX, ProtocolKind::kRdp, ProtocolKind::kLbx,
                            ProtocolKind::kSlim, ProtocolKind::kVnc}) {
    ProtocolTrafficResult traffic = RunAppWorkloadTraffic(kind, 1, 300);
    if (kind == ProtocolKind::kX) {
      x_total = traffic.total_bytes;
    }
    GifAnimationOptions gif;
    gif.duration = Duration::Seconds(15);
    AnimationLoadResult anim = RunGifAnimation(kind, gif);
    table.AddRow({traffic.protocol, TextTable::Num(traffic.total_bytes),
                  TextTable::Percent(static_cast<double>(traffic.total_bytes) /
                                     static_cast<double>(x_total)),
                  TextTable::Num(traffic.total_messages),
                  TextTable::Fixed(traffic.avg_message_size, 1),
                  TextTable::Fixed(anim.sustained_mbps, 3)});
  }
  out += table.Render() + "\n";
}

// Ablation A5: does adding processors fix the interactive-latency pathologies?
//
// The era's answer to a loaded terminal server was "buy a bigger SMP box". This harness
// re-runs the Figure 3 experiment with 1, 2, and 4 processors per OS. SMP absorbs load
// up to the processor count but does not change the scheduling policy: once the sinks
// outnumber the processors, TSE's unboosted display pipeline queues exactly as before,
// while the SVR4 interactive class never needed the extra silicon.
const std::vector<int> kSinks = {0, 2, 5, 10, 15, 20, 30};
const int kProcs[] = {1, 2, 4};

void AblationSmp(std::string& out) {
  for (const OsProfile& profile : {OsProfile::Tse(), OsProfile::LinuxX()}) {
    // One cell per sink count, rendering its row: the processor counts run in turn.
    auto rows = Grid().Run(kSinks, [&](int sinks) {
      std::vector<std::string> row{TextTable::Num(sinks)};
      for (int procs : kProcs) {
        row.push_back(TextTable::Fixed(
            RunTypingUnderLoad(profile, sinks, Duration::Seconds(30), 1, procs).avg_stall_ms,
            1));
      }
      return row;
    });
    out += "--- " + profile.name + " ---\n";
    TextTable table({"sinks", "1 cpu", "2 cpus", "4 cpus"});
    for (const auto& [sinks, row] : rows) {
      table.AddRow(row);
    }
    out += table.Render() + "\n";
  }
}

// Extension R2: protocol viability over constrained access links.
//
// The paper's introduction motivates thin clients converging onto wireless, mobile,
// ubiquitous devices; §6 shows protocol efficiency determines what the network can carry.
// This harness replays a fixed editing session over each protocol across link classes
// (shared LAN, T1, ISDN, V.90 modem) and reports the time the display channel alone needs
// to drain — i.e. how far behind the user's interactions the picture falls.
struct LinkClass {
  const char* name;
  BitsPerSecond rate;
  Duration propagation;
};

void AccessLinks(std::string& out) {
  const LinkClass kLinks[] = {
      {"10 Mbps LAN", BitsPerSecond::Mbps(10), Duration::Micros(50)},
      {"T1 (1.54 Mbps)", BitsPerSecond::Kbps(1540), Duration::Millis(5)},
      {"ISDN (128 kbps)", BitsPerSecond::Kbps(128), Duration::Millis(15)},
      {"V.90 modem (56 kbps)", BitsPerSecond::Kbps(56), Duration::Millis(80)},
  };

  // Traffic for a ~6-minute interactive session over each protocol.
  ProtocolTrafficResult traffic[] = {
      RunAppWorkloadTraffic(ProtocolKind::kRdp, 1, 300),
      RunAppWorkloadTraffic(ProtocolKind::kLbx, 1, 300),
      RunAppWorkloadTraffic(ProtocolKind::kX, 1, 300),
      RunAppWorkloadTraffic(ProtocolKind::kSlim, 1, 300),
      RunAppWorkloadTraffic(ProtocolKind::kVnc, 1, 300),
  };
  // The session spans ~6 min of user time; the display channel must sustain this rate.
  constexpr double kSessionSeconds = 360.0;

  TextTable table({"protocol", "display bytes", "needed (kbps)", "LAN", "T1", "ISDN",
                   "modem"});
  for (const ProtocolTrafficResult& t : traffic) {
    double needed_bps = static_cast<double>(t.display.bytes) * 8.0 / kSessionSeconds;
    std::vector<std::string> row{t.protocol, TextTable::Num(t.display.bytes),
                                 TextTable::Fixed(needed_bps / 1e3, 1)};
    for (const LinkClass& link : kLinks) {
      double headroom = static_cast<double>(link.rate.bps()) / needed_bps;
      if (headroom >= 3.0) {
        row.push_back("ok");
      } else if (headroom >= 1.0) {
        row.push_back(Format("tight %.1fx", headroom));
      } else {
        row.push_back(Format("NO (%.1fx)", headroom));
      }
    }
    table.AddRow(std::move(row));
  }
  out += table.Render() + "\n";
  out += "reading: 'ok' = >=3x headroom for interaction bursts; 'tight' = drains on\n";
  out += "average but bursts stall; 'NO' = the display channel cannot keep up at all.\n";
}

// Extension R3: the end-to-end latency budget — §3.2's factor taxonomy (hardware
// resources, OS structure, user behavior) turned into a measured breakdown of where each
// keystroke's milliseconds go: input transit, server scheduling + pipeline, display
// transit, client decode + blit.
struct Scenario {
  const char* label;
  EndToEndOptions options;
};

std::vector<Scenario> Scenarios() {
  EndToEndOptions baseline;
  EndToEndOptions loaded = baseline;
  loaded.sinks = 10;
  EndToEndOptions congested = baseline;
  congested.background_mbps = 9.0;
  EndToEndOptions weak_client = baseline;
  weak_client.client = ThinClientConfig::Handheld();
  return {{"idle server, desktop client", baseline},
          {"10 sinks (CPU stress)", loaded},
          {"9 Mbps background (net stress)", congested},
          {"handheld client (client stress)", weak_client}};
}

void E2eBudget(std::string& out) {
  for (const OsProfile& profile : {OsProfile::Tse(), OsProfile::LinuxX()}) {
    // One cell per scenario, rendering its row.
    auto rows = Grid().Run(Scenarios(), [&](const Scenario& scenario) {
      EndToEndResult r = RunEndToEndLatency(profile, scenario.options);
      return std::vector<std::string>{
          scenario.label, TextTable::Fixed(r.input_net_ms, 2), TextTable::Fixed(r.server_ms, 2),
          TextTable::Fixed(r.display_net_ms, 2), TextTable::Fixed(r.client_ms, 2),
          TextTable::Fixed(r.total_ms, 2)};
    });
    out += "--- " + profile.name + " ---\n";
    TextTable table({"scenario", "input net", "server", "display net", "client", "total"});
    for (const auto& [scenario, row] : rows) {
      table.AddRow(row);
    }
    out += table.Render() + "\n";
  }
}

// Extension R4 (§7, Danskin): profiling the X protocol by request type. Danskin's work
// "focused primarily on determining the load generated by typical applications of his
// day" and characterizing display-channel idioms — the inspiration for the paper's (and
// our) prototap. This harness prints the per-request-type byte/count profile of the
// application workload over X.
void XProfile(std::string& out) {
  ProtocolHarness harness(ProtocolKind::kX, 1);
  ReplayAppWorkload(harness, 1, 400);
  const auto& x = dynamic_cast<const XProtocol&>(harness.protocol());

  int64_t total_count = 0;
  int64_t total_bytes = 0;
  for (const auto& [opcode, prof] : x.request_profile()) {
    total_count += prof.count;
    total_bytes += prof.bytes;
  }
  TextTable table({"request", "count", "bytes", "% of bytes", "avg size"});
  for (const auto& [opcode, prof] : x.request_profile()) {
    table.AddRow({XProtocol::OpcodeName(opcode), TextTable::Num(prof.count),
                  TextTable::Num(prof.bytes),
                  TextTable::Percent(static_cast<double>(prof.bytes) /
                                     static_cast<double>(total_bytes)),
                  TextTable::Fixed(static_cast<double>(prof.bytes) /
                                       static_cast<double>(prof.count),
                                   1)});
  }
  table.AddRow({"total", TextTable::Num(total_count), TextTable::Num(total_bytes), "100%",
                TextTable::Fixed(static_cast<double>(total_bytes) /
                                     static_cast<double>(total_count),
                                 1)});
  out += table.Render() + "\n";
  out += Format("Danskin's conclusion, reproduced: the average request (%.0f B) is far\n"
                "below the 1500 B MTU, so fixed per-packet headers dominate efficiency.\n",
                static_cast<double>(total_bytes) / static_cast<double>(total_count));
}

struct Artifact {
  const char* name;  // the argument to `tcsctl paper`
  void (*run)(std::string& out);
  const char* title;
  const char* description;
  const char* paper;  // what the paper reports, printed before the measurement
};

// Table order is EXPERIMENTS.md's order.
const Artifact kArtifacts[] = {
    {"fig1_idle_cpu", Fig1IdleCpu,
     "Figure 1 — idle-state CPU activity (utilization vs time, 100 ms buckets)",
     "10 s idle trace per OS; no user sessions, daemons only.",
     "Linux spends much less CPU when idle than NT or TSE; TSE shows extra "
     "periodic activity from the Terminal Service / Session Manager."},
    {"fig2_cumulative_latency", Fig2CumulativeLatency,
     "Figure 2 — cumulative idle-state latency vs event duration",
     "10-minute idle trace; per-thread lost-time events.",
     "NT's events are <= 100 ms; TSE adds 250 ms and 400 ms events; Linux sees "
     "few events of significant latency. TSE aggregate ~45 s, ~3x NT, ~7x Linux."},
    {"fig3_stall_vs_load", Fig3StallVsLoad,
     "Figure 3 — average stall length vs scheduler queue length",
     "20 Hz key repeat; N sinks; stall = display inter-arrival - 50 ms.",
     "TSE latency increases sharply around 10 load units and the system is "
     "barely usable at 15; Linux degrades linearly but more slowly; Evans et "
     "al.'s interactive SVR4 stays constant and small."},
    {"table_session_memory", TableSessionMemory,
     "§5.1.1 — compulsory memory load",
     "Idle-system memory plus minimal-login process tables per OS.",
     "Idle: ~17 MB Linux vs ~19 MB TSE. Per login: Linux 752 KB; TSE typical "
     "3,244 KB; TSE light (command.com) 2,100 KB."},
    {"table_paging", TablePaging,
     "§5.2 — keystroke latency under paging pressure (ms, 10 runs)",
     "Editor idles ~30 s while a streaming hog runs, then one keystroke.",
     "Linux >=100%: 330 / 1,170 / 3,000.  TSE >=100%: 2,430 / 4,026 / 11,850. "
     "Averages are ~11x (Linux) and ~40x (TSE) the perception threshold."},
    {"table_protocol_traffic", TableProtocolTraffic,
     "§6.1.2 — protocol traffic on the application workload",
     "WordPerfect-, Gimp-, and control-panel-style scripts over each protocol.",
     "RDP: 888,239 B / 1,841 msgs (avg 482).  X: 6,250,888 B / 26,923 msgs "
     "(avg 232).  LBX: 3,197,185 B / 36,615 msgs (avg 87). RDP < 15% of X "
     "bytes and < 30% of LBX."},
    {"table_vip", TableVip,
     "§6.1.2 — VIP (virtual IP) header-elision savings",
     "Same traces as the traffic table with 20 bytes removed per packet.",
     "Savings: RDP 4.65%, X 9.15%, LBX 22.90% — smaller messages benefit "
     "more. Even with VIP, LBX stays > 2x less efficient than RDP."},
    {"table_setup_bytes", TableSetupBytes,
     "§6.1.1 — compulsory network load",
     "Session setup bytes per protocol; idle-session traffic.",
     "Setup: 45,328 bytes TSE vs 16,312 bytes Linux/X. Neither system "
     "exchanges data while the user is idle."},
    {"fig4_webpage", Fig4Webpage,
     "Figure 4 — synthetic webpage network load over RDP (Mbps vs time)",
     "468x60 animated GIF banner + scrolling marquee ticker, 160 s.",
     "Combined: 1.60 Mbps sustained (plateaus 1.89). Marquee alone: 0.07 "
     "Mbps. Banner alone: 0.01 Mbps — the bitmap cache holds either element's "
     "frames but not both."},
    {"fig5_gif", Fig5Gif,
     "Figure 5 — 10-frame 20 Hz animated GIF over X / LBX / RDP (Mbps vs time)",
     "100 ms load buckets over 20 s.",
     "X transfers the full bitmap for every frame (~2-3 Mbps sustained); LBX "
     "is no better in kind; RDP caches the loop and nearly vanishes."},
    {"fig6_cache_overflow", Fig6CacheOverflow,
     "Figure 6 — CPU utilization and cumulative cache hit ratio, 66-frame loop",
     "24 KB frames at 5 fps vs the 1.5 MB LRU client cache, 60 s.",
     "CPU starts ~10% and never falls (every frame misses and is re-sent); "
     "the cumulative hit ratio starts ~70% and falls asymptotically to zero."},
    {"fig7_cache_knee", Fig7CacheKnee,
     "Figure 7 — network load vs animation frame count ('Dateline NBC')",
     "24 KB frames at 5 fps over RDP; frame counts 25..100.",
     "0.01 Mbps for 25..65 frames; 0.96 Mbps for everything above 65 — the "
     "cliff marks the 1.5 MB cache boundary."},
    {"fig8_rtt", Fig8Rtt,
     "Figure 8 — ping RTT vs offered load (64-byte packets, 10 Mbps link)",
     "60 s of pings per load level against Poisson background traffic.",
     "RTT stays low and almost perfectly consistent until near saturation; "
     "the ~55 ms delay at 9.6 Mbps is well into human latency tolerance."},
    {"fig9_jitter", Fig9Jitter,
     "Figure 9 — RTT variance (jitter) vs offered load",
     "60 s of 64-byte pings per load level; variance over all packets.",
     "While the network is not saturated, RTT is almost perfectly consistent; "
     "jitter explodes as the link nears saturation, compounding the latency."},
    {"ablation_boost", AblationBoost,
     "Ablation A1 — GUI boost grace period vs operation length",
     "500 ms maximize op vs a 400 ms priority-13 event; stretch x speed sweep.",
     "Boost lasts 2 quanta: grace = 2 x 30 ms x stretch (max 180 ms). An "
     "operation longer than the grace period pays the full daemon event "
     "(500 -> 900 ms); processors ~3x faster bring it under the threshold "
     "with no scheduler change."},
    {"ablation_cache_policy", AblationCachePolicy,
     "Ablation A2 — bitmap cache eviction policy vs looping animations",
     "Frame counts 25..100 at 5 fps over RDP; LRU vs loop-aware eviction.",
     "Looping animations defeat LRU bitmap caches the way sequential scans "
     "defeat LRU disk caches. A loop-aware policy keeps a stable prefix "
     "resident and removes the Figure 7 cliff."},
    {"ablation_throttle", AblationThrottle,
     "Ablation A3 — interactive-memory protection + hog throttling",
     "The §5.2 experiment (>= 100% page demand) under global LRU vs protection.",
     "Evans et al. demonstrated that non-interactive process throttling "
     "eliminated this pathology in their modified SVR4 kernel."},
    {"ablation_sizing", AblationSizing,
     "Ablation A4 — utilization-based vs latency-based server sizing",
     "N users typing at 5 chars/s, each with a periodic 300 ms app burst.",
     "Sizing white papers report supported users from utilization alone; the "
     "paper's framework asks what latency those users actually experience."},
    {"simple_animations", SimpleAnimations,
     "§6.1.3 — 'harmless' simple animations (KB/s over 60 s)",
     "Blinking caret (2 Hz) and progress bar (4 Hz) per protocol.",
     "Simple animations generate less than 10 KBps — unlike the banner ads "
     "and tickers of Figure 4."},
    {"related_work", RelatedWork,
     "Related work (§7) — RDP / X / LBX / SLIM / VNC",
     "Application workload traffic and the Figure 5 animation per protocol.",
     "SLIM ~ X in network load, behind RDP and LBX; VNC similar to SLIM. "
     "Framebuffer protocols pay pixel rates for text; pull protocols coalesce "
     "animation frames at the cost of update latency."},
    {"ablation_smp", AblationSmp,
     "Ablation A5 — SMP scaling of the Figure 3 experiment",
     "Average stall (ms) vs sinks for 1 / 2 / 4 processors.",
     "Not a paper experiment: quantifies how much of the scheduling problem "
     "can be bought off with hardware (and how much cannot)."},
    {"access_links", AccessLinks,
     "Extension R2 — protocol traffic vs access-link capacity",
     "The 3-app workload's bytes against each link class's drain rate.",
     "Not a paper experiment: extends §6's protocol comparison to the "
     "wireless/mobile access links the introduction motivates."},
    {"e2e_budget", E2eBudget,
     "Extension R3 — end-to-end keystroke latency budget (mean ms per leg)",
     "input net | server (queue+pipeline) | display net | client decode+blit",
     "Not a paper figure: §3.2's 'three categories of factors' made "
     "measurable. Shows which leg dominates under each kind of stress."},
    {"x_profile", XProfile,
     "Extension R4 — Danskin-style X protocol profile",
     "Per-request-type counts and bytes for the 3-app workload over X.",
     "Danskin profiled the X protocol per request type and found small "
     "message sizes make TCP/IP an inefficient substrate — the conclusion "
     "the paper (and our VIP table) reconfirms."},
};

// The artifact as `tcsctl paper` prints it: the banner and paper note, then what the
// artifact measured.
std::string Render(const Artifact* a) {
  const std::string rule(74, '=');
  std::string out = rule + "\n" + a->title + "\n" + a->description + "\n" + rule +
                    "\npaper: " + a->paper + "\n\n";
  a->run(out);
  return out;
}

}  // namespace

int RunPaper(const std::string& name) {
  std::vector<const Artifact*> chosen;
  for (const Artifact& a : kArtifacts) {
    if (name.empty() || name == a.name) {
      chosen.push_back(&a);
    }
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "unknown artifact '%s'; one of:\n", name.c_str());
    for (const Artifact& a : kArtifacts) {
      std::fprintf(stderr, "  %s\n", a.name);
    }
    return 2;
  }
  // The suite is one grid of artifacts, printed in table order once every one has run.
  for (const auto& [artifact, text] : Grid().Run(chosen, Render)) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  return 0;
}

}  // namespace tcs
