// Multi-user consolidation and admission control (§3.1, §7).
//
// RunConsolidation simulates N concurrent interactive users on one server with the
// whole stack engaged: every session owns its own protocol pipeline (encoder + bitmap
// cache) multiplexed over the shared access link, login text segments are shared
// across sessions in the pager, and each user types at a human cadence with an
// optional periodic application burst. Per-user keystroke stalls are collected as
// exact-microsecond samples, so results are byte-comparable across runs.
//
// RunServerCapacity answers the deployer's question — how many users fit? — under the
// two sizing doctrines the paper contrasts:
//   * kUtilization: the vendor white-paper criterion (aggregate CPU utilization below
//     a cap). Blind to latency, so it over-admits when stalls appear before the CPU
//     saturates (priority starvation, link queueing, paging).
//   * kLatency: the paper's §3.2 criterion — every admitted user's p99 keystroke stall
//     stays below the threshold of human perception.
// Both answers come from one shared, memoized set of candidate evaluations, so the
// utilization policy's over-admission is directly visible in the probe list.

#ifndef TCS_SRC_CORE_ADMISSION_H_
#define TCS_SRC_CORE_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/mem/pager.h"
#include "src/session/os_profile.h"
#include "src/sim/time.h"

namespace tcs {

struct ConsolidationOptions {
  int users = 1;
  Duration duration = Duration::Seconds(60);
  uint64_t seed = 1;
  int processors = 1;
  Bytes ram = Bytes::MiB(64);
  EvictionPolicy eviction = EvictionPolicy::kGlobalLru;
  // Typing cadence and phasing. With users == 1, no bursts, and the defaults below,
  // the schedule is identical to RunTypingUnderLoad's (start at 1 s, 50 ms repeat).
  Duration keystroke_period = Duration::Millis(50);
  Duration start_delay = Duration::Seconds(1);
  Duration stagger = Duration::Millis(13);
  // Per-user periodic application burst (compile, page render). Zero disables — and no
  // burst thread is created at all, preserving byte-identity with the typing path.
  Duration burst_cpu = Duration::Zero();
  Duration burst_period = Duration::Seconds(5);
  int sinks = 0;  // server-wide batch load, as in RunTypingUnderLoad
  // Optional WAN shaping on the shared access link, the wiring RunWanPoint uses too
  // (fault RNG seeded from `seed ^ 0xFA017`, degradation armed after the 2 s warm-up
  // with the pressure ladder calibrated to the bottleneck queue). The default all-empty
  // profile injects nothing and leaves the run byte-identical to a LAN run.
  WanProfile wan;
  bool degrade = false;  // arm the DegradationController (meaningful with `wan`)
};

// Throws ConfigError on nonsensical values (users < 1, zero cadence, ...).
ConsolidationOptions Validated(ConsolidationOptions options);

struct UserStallStats {
  int64_t updates = 0;
  double avg_stall_ms = 0.0;  // over all gaps, zero when on time (Figure 3's metric)
  double max_stall_ms = 0.0;
  double jitter_ms = 0.0;
  double p50_stall_ms = 0.0;
  // p99 over this user's gap stalls; a user who never saw two updates is scored the
  // whole run length — total starvation, not missing data.
  double p99_stall_ms = 0.0;
  // This session's bytes on the shared link (wire bytes incl. headers) and its share.
  Bytes wire_bytes = Bytes::Zero();
  double link_share = 0.0;
  // Exact-microsecond stall samples in arrival order (gap minus cadence, floored at 0).
  std::vector<int64_t> stall_samples_us;
};

struct ConsolidationResult {
  std::string os_name;
  std::string protocol;
  int users = 0;
  double cpu_utilization = 0.0;   // busy time / total simulated time
  double link_utilization = 0.0;  // shared access link, over the same window
  // Pager gauges at end of run: the consolidation story's memory axis.
  size_t resident_pages = 0;
  size_t total_frames = 0;
  size_t shared_segments = 0;
  int64_t shared_attaches = 0;
  int64_t page_faults = 0;
  int64_t coalesced_waits = 0;
  // Cross-user aggregates of the per-user stall stats.
  double avg_stall_ms = 0.0;        // mean of per-user averages
  double worst_stall_ms = 0.0;      // largest single stall any user saw
  double worst_p99_stall_ms = 0.0;  // max over users of per-user p99
  std::vector<UserStallStats> per_user;
  AttributionResult blame;
  // SLO verdict; `slo.active` only when the ObsConfig carried an SloSpec.
  SloReport slo;
  RunStats run;
};

ConsolidationResult RunConsolidation(const OsProfile& profile,
                                     const ConsolidationOptions& options,
                                     const ObsConfig* obs = nullptr);

// The two sizing doctrines (header comment above).
enum class AdmissionPolicy { kUtilization, kLatency };

struct AdmissionConfig {
  double max_utilization = 0.85;                       // the white-paper cap
  Duration max_p99_stall = Duration::Millis(100);      // kPerceptionThreshold
};

// True when `r` satisfies the policy's admission criterion.
bool Admits(AdmissionPolicy policy, const AdmissionConfig& admission,
            const ConsolidationResult& r);

struct CapacityOptions {
  int max_users = 24;  // search ceiling
  AdmissionConfig admission;
  // Per-candidate run shape; `.users` is overwritten by the search. The default is a
  // heavier-handed workload than bare typing — every user fires a periodic compute
  // burst — so capacity is bounded by interference, not by the search ceiling.
  ConsolidationOptions behavior = [] {
    ConsolidationOptions b;
    b.duration = Duration::Seconds(30);
    b.burst_cpu = Duration::Millis(300);
    b.burst_period = Duration::Seconds(5);
    return b;
  }();
};

CapacityOptions Validated(CapacityOptions options);

struct CapacityResult {
  std::string os_name;
  std::string protocol;
  int utilization_sized_users = 0;
  int latency_sized_users = 0;
  // True when the utilization doctrine admits more users than the latency doctrine —
  // the §3 argument that resource-centric sizing oversells interactive servers.
  bool utilization_over_admits = false;
  // Every candidate N the binary searches evaluated, ascending. Each probe ran with
  // the same seed, so re-running a probe's N via RunConsolidation reproduces it.
  std::vector<ConsolidationResult> probes;
  RunStats run;  // summed over probes
};

// Binary-searches the largest admitted user count per policy in [1, max_users],
// memoizing one evaluation per candidate N and sharing it between both policies.
// Deterministic: every candidate runs with `options.behavior.seed`, so results are
// independent of search order, worker count, and repetition.
CapacityResult RunServerCapacity(const OsProfile& profile, const CapacityOptions& options,
                                 const ObsConfig* obs = nullptr);

}  // namespace tcs

#endif  // TCS_SRC_CORE_ADMISSION_H_
