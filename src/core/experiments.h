// The paper's evaluation framework as a programmatic API.
//
// Each function runs one of the paper's experiment designs end to end — behavior
// generates resource load, operating system structure translates load into
// user-perceived latency (§3) — and returns the measurements the corresponding figure or
// table reports. Benches and examples are thin wrappers over these.

#ifndef TCS_SRC_CORE_EXPERIMENTS_H_
#define TCS_SRC_CORE_EXPERIMENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/client/thin_client.h"
#include "src/cpu/idle_profiler.h"
#include "src/fault/fault_plan.h"
#include "src/mem/pager.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/proto/bitmap_cache.h"
#include "src/session/os_profile.h"
#include "src/sim/time.h"

namespace tcs {

// Standard kernel/run accounting attached to every experiment result: how many events
// the simulation kernel dispatched, how many were still pending at the end, and the
// real (wall-clock) time the run took. For multi-run experiments these are summed over
// the runs. wall_ms is the only non-deterministic field anywhere in a result.
struct RunStats {
  uint64_t events_executed = 0;
  uint64_t pending_events = 0;
  double wall_ms = 0.0;
};

// ---------------------------------------------------------------------------
// Processor (Figures 1-3)

struct IdleProfileResult {
  std::string os_name;
  // CPU utilization per 100 ms bucket, in [0,1] (Figure 1).
  std::vector<double> utilization;
  // Lost-time event curve (Figure 2).
  std::vector<IdleLoopProfiler::CumulativePoint> cumulative;
  Duration total_busy;
  Duration duration;
  RunStats run;
};

IdleProfileResult RunIdleProfile(const OsProfile& profile, Duration duration,
                                 uint64_t seed = 1);

struct TypingUnderLoadResult {
  std::string os_name;
  int sinks = 0;
  // Average stall length over all inter-update gaps (Figure 3's y axis).
  double avg_stall_ms = 0.0;
  double max_stall_ms = 0.0;
  double jitter_ms = 0.0;
  int64_t updates = 0;
  // Exact-microsecond stall samples (inter-update gap minus the cadence, floored at
  // zero), in arrival order. The differential anchor for RunServerCapacity's N=1 case.
  std::vector<int64_t> stall_samples_us;
  // Per-stage latency attribution; `blame.active` only when the run's ObsConfig carried
  // a LatencyAttribution engine.
  AttributionResult blame;
  // SLO verdict; `slo.active` only when the ObsConfig carried an SloSpec.
  SloReport slo;
  RunStats run;
};

TypingUnderLoadResult RunTypingUnderLoad(const OsProfile& profile, int sinks,
                                         Duration duration = Duration::Seconds(60),
                                         uint64_t seed = 1, int processors = 1,
                                         const ObsConfig* obs = nullptr);

// The §4.2.1 worked example: time to complete a 500 ms maximize operation that intersects
// a 400 ms priority-13 daemon event, as a function of quantum stretching and CPU speed.
Duration RunMaximizeScenario(int foreground_stretch, double cpu_speed);

// ---------------------------------------------------------------------------
// Memory (§5 tables)

struct SessionMemoryRow {
  std::string process;
  Bytes private_memory;
};

struct SessionMemoryResult {
  std::string os_name;
  bool light = false;
  std::vector<SessionMemoryRow> processes;
  Bytes total = Bytes::Zero();       // per-login compulsory *private* memory
  Bytes total_shared = Bytes::Zero();  // text mapped but shared across sessions
  Bytes idle_system = Bytes::Zero();  // kernel + services with no sessions
  // Measured private residency from the pager after login (shared text and the editor
  // working set excluded; must equal `total` rounded to pages).
  Bytes measured_resident = Bytes::Zero();
  RunStats run;
};

SessionMemoryResult MeasureSessionMemory(const OsProfile& profile, bool light = false);

struct PagingLatencyResult {
  std::string os_name;
  bool full_demand = false;  // the ">= 100%" column
  int runs = 0;
  double min_ms = 0.0;
  double avg_ms = 0.0;
  double max_ms = 0.0;
  // Attribution over the observed (first) trial's interactions, when requested.
  AttributionResult blame;
  RunStats run;  // summed over the runs
};

// §5.2: editor idles while a streaming hog runs for ~30 s, then one keystroke; response
// time over `runs` trials. `full_demand` selects the >= 100% page-demand column.
// `eviction` switches on the Evans-style protection/throttling ablation.
PagingLatencyResult RunPagingLatency(const OsProfile& profile, bool full_demand,
                                     int runs = 10, uint64_t seed = 1,
                                     EvictionPolicy eviction = EvictionPolicy::kGlobalLru,
                                     const ObsConfig* obs = nullptr);

// ---------------------------------------------------------------------------
// Network (§6 tables and Figures 4-9)

struct ChannelTraffic {
  int64_t bytes = 0;     // payload + TCP/IP headers, tcpdump-style
  int64_t messages = 0;
};

struct ProtocolTrafficResult {
  std::string protocol;
  ChannelTraffic input;
  ChannelTraffic display;
  int64_t total_bytes = 0;
  int64_t total_messages = 0;
  double avg_message_size = 0.0;
  int64_t packets = 0;
  // Bytes with the IP header elided on every packet (the VIP table).
  int64_t vip_bytes = 0;
  RunStats run;
};

// §6.1.2's application workload: the word-processor, photo-editor, and control-panel
// scripts replayed over the given protocol.
ProtocolTrafficResult RunAppWorkloadTraffic(ProtocolKind kind, uint64_t seed = 1,
                                            int steps_per_app = 600,
                                            const ObsConfig* obs = nullptr);

struct AnimationLoadResult {
  std::string protocol;
  // Display-channel load per bucket, Mbps.
  std::vector<double> load_mbps;
  Duration bucket = Duration::Seconds(1);
  double mean_mbps = 0.0;
  // Mean over the steady state (first `warm_buckets` buckets skipped).
  double sustained_mbps = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cumulative_hit_ratio = 0.0;
  RunStats run;
};

// Figure 4: the synthetic webpage (banner and/or marquee) over a protocol.
AnimationLoadResult RunWebPageLoad(ProtocolKind kind, bool banner, bool marquee,
                                   Duration duration = Duration::Seconds(160),
                                   uint64_t seed = 1);

// Figures 5 and 7 and the A2 ablation: an N-frame looping animation over a protocol.
struct GifAnimationOptions {
  int frames = 10;
  Duration frame_period = Duration::Millis(50);
  int width = 468;
  int height = 60;
  double compression_ratio = 0.85;
  Duration duration = Duration::Seconds(20);
  Duration bucket = Duration::Seconds(1);
  CachePolicy cache_policy = CachePolicy::kLru;
  uint64_t seed = 1;
};

AnimationLoadResult RunGifAnimation(ProtocolKind kind, const GifAnimationOptions& options,
                                    const ObsConfig* obs = nullptr);

// Figure 6: CPU utilization and cumulative bitmap-cache hit ratio over time for an
// animation that overflows the cache, after a warm session whose UI rasters seeded it.
struct CacheOverflowResult {
  std::vector<double> cpu_utilization;       // per second
  std::vector<double> cumulative_hit_ratio;  // per second
  RunStats run;
};

CacheOverflowResult RunCacheOverflow(int frames, Duration duration = Duration::Seconds(60),
                                     uint64_t seed = 1);

// Figures 8-9: ping RTT mean and variance under Poisson background load.
struct RttProbeResult {
  double offered_mbps = 0.0;
  double mean_rtt_ms = 0.0;
  double rtt_variance = 0.0;
  RunStats run;
};

RttProbeResult RunRttProbe(double offered_mbps, Duration duration = Duration::Seconds(60),
                           uint64_t seed = 1);

// §6.1.1: session negotiation cost per protocol.
Bytes SessionSetupBytes(ProtocolKind kind);

// ---------------------------------------------------------------------------
// Server sizing (§3.1 / §7)
//
// The question the paper says deployers need answered — and the one it criticizes vendor
// sizing white papers for answering with utilization alone, "uniformly ignoring the
// issue of user-perceived latency". RunServerSizing simulates N concurrent users, each
// typing at ~5 chars/s (200 ms cadence, phases 13 ms apart) plus a 300 ms compute burst
// every 5 s (spreadsheet recalc, page render, ...), and reports BOTH criteria so the two
// capacity answers can be compared.

struct SizingPoint {
  std::string os_name;
  int users = 0;
  // The white-paper criterion.
  double cpu_utilization = 0.0;
  // The paper's criterion: mean and worst per-user average stall.
  double avg_stall_ms = 0.0;
  double worst_stall_ms = 0.0;
  // Aggregated over every user's interactions, when the ObsConfig requests attribution.
  AttributionResult blame;
  RunStats run;
};

SizingPoint RunServerSizing(const OsProfile& profile, int users,
                            Duration duration = Duration::Seconds(30), uint64_t seed = 1,
                            const ObsConfig* obs = nullptr);

// ---------------------------------------------------------------------------
// End-to-end latency budget (§3.2's factor taxonomy made measurable)
//
// Where a keystroke's latency goes: input-channel transit, server scheduling + pipeline,
// display-channel transit, and the client device's decode + blit. Run with configurable
// server load (sinks), background network load, and client device class.

struct EndToEndOptions {
  int sinks = 0;
  double background_mbps = 0.0;  // Poisson load sharing the session's link
  ThinClientConfig client = ThinClientConfig::DesktopPc();
  Duration duration = Duration::Seconds(30);
  uint64_t seed = 1;
  // Chaos knobs: an empty (default) plan leaves the run byte-identical to a fault-free
  // build; a non-empty plan injects the configured faults and fills result.faults.
  FaultPlan faults;
};

struct EndToEndResult {
  std::string os_name;
  std::string client_name;
  // Mean milliseconds per leg over all updates.
  double input_net_ms = 0.0;
  double server_ms = 0.0;
  double display_net_ms = 0.0;
  double client_ms = 0.0;
  double total_ms = 0.0;
  int64_t updates = 0;
  // Fault/recovery accounting; `faults.active` is false for an empty plan.
  FaultStats faults;
  // Per-stage latency attribution; active when the ObsConfig carried an engine.
  AttributionResult blame;
  // SLO verdict; `slo.active` only when the ObsConfig carried an SloSpec.
  SloReport slo;
  RunStats run;
};

EndToEndResult RunEndToEndLatency(const OsProfile& profile, const EndToEndOptions& options,
                                  const ObsConfig* obs = nullptr);

// ---------------------------------------------------------------------------
// Chaos (fault-injection) sweep
//
// The robustness question the latency budget doesn't answer: at what combination of
// frame loss and link flapping does a remote session stop feeling interactive? One chaos
// point runs the end-to-end typing workload under a deterministic fault plan and reports
// the keystroke latency distribution (p50/p99), how much of it crossed the perception
// threshold, and the fault/recovery ledger (availability, retransmissions, stalls).

struct ChaosOptions {
  double loss_rate = 0.0;        // per-frame loss probability on the session link
  Duration flap_every = Duration::Zero();     // mean time between link outages (0 = off)
  Duration flap_duration = Duration::Zero();  // outage length per flap
  double disk_stall_rate = 0.0;  // per-request probability of a pager-disk stall
  Duration disconnect_every = Duration::Zero();  // mean time between forced disconnects
  int sinks = 0;
  Duration duration = Duration::Seconds(30);
  uint64_t seed = 1;
  // Latency above this counts as a perception-threshold crossing in the report.
  Duration threshold = Duration::Millis(150);
};

struct ChaosPoint {
  std::string os_name;
  double loss_rate = 0.0;
  double flap_ms = 0.0;
  // Keystroke end-to-end latency distribution (milliseconds).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  // Fraction of keystrokes whose end-to-end latency exceeded options.threshold.
  double perceptible_fraction = 0.0;
  bool crosses_threshold = false;  // p99 above options.threshold
  int64_t updates = 0;
  FaultStats faults;
  // Link ledger: sent = delivered + lost, attempts = originals + retransmissions.
  int64_t link_frames_sent = 0;
  int64_t link_frames_delivered = 0;
  int64_t link_frames_lost = 0;
  int64_t retransmissions = 0;
  // Chaos points always attribute: the blame block shows retransmit/outage time moving
  // into the network stages as loss grows.
  AttributionResult blame;
  // SLO verdict; `slo.active` only when the ObsConfig carried an SloSpec. On violation
  // `slo.postmortems` names the forensic bundle written for this cell.
  SloReport slo;
  RunStats run;
};

ChaosPoint RunChaosPoint(const OsProfile& profile, const ChaosOptions& options,
                         const ObsConfig* obs = nullptr);

// ---------------------------------------------------------------------------
// WAN pathology sweep + graceful degradation
//
// The paper's measurements ran on a healthy 10 Mbps LAN; real deployments put the same
// sessions behind DSL tails, cellular links, and satellite hops. One WAN point runs a
// multi-user interactive workload (plus one background media session saturating the
// narrow downlink) under a named WAN pathology profile, with the server's
// backpressure-driven DegradationController either off (baseline) or on, and reports
// worst-user latency, availability, and starvation so the two arms can be compared.

// A named WAN pathology: the session-link plan (extra delay, jitter, asymmetric rates,
// bufferbloat queue, Gilbert–Elliott burst loss; src/fault/fault_plan.h) plus the name
// reports print. One assignment puts a profile on a FaultPlan's link.
struct WanProfile : WanLinkPlan {
  std::string name;
};

// Named profiles: "dsl", "lte", "satellite", "congested-office".
// Throws tcs::ConfigError on an unknown name.
WanProfile WanProfileByName(const std::string& name);
// The sweep's default profile set, in presentation order.
std::vector<std::string> WanProfileNames();

struct WanOptions {
  WanProfile profile;   // empty profile = plain LAN (differential-test baseline)
  bool degrade = false; // arm the DegradationController
  int users = 3;        // interactive typists
  bool background_session = true;  // one media session hammering the downlink
  Duration duration = Duration::Seconds(30);
  uint64_t seed = 1;
  Duration threshold = Duration::Millis(150);   // perception threshold
  // An echo pending beyond this counts the user as starved (unresponsive session).
  Duration starve_after = Duration::Seconds(1);
  // Keystroke cadence per typist. The default sustains the sweep's historical byte-exact
  // behaviour; large consolidated runs over narrow profiles need a slower cadence or the
  // aggregate echo traffic alone oversubscribes the downlink.
  Duration think_time = Duration::Millis(200);
  // Virtual hardware for what-if re-simulation (RunWhatIf's achieved arm). 1.0 = stock;
  // both are gated on != 1.0 so default cells stay byte-identical to earlier builds.
  // cpu_speed multiplies CpuConfig.speed; disk_speedup divides the swap disk's
  // positioning costs and multiplies its transfer rate.
  double cpu_speed = 1.0;
  double disk_speedup = 1.0;
};

struct WanPoint {
  std::string os_name;
  std::string profile;
  bool degrade = false;
  int users = 0;
  // Worst interactive user's keystroke latency (the per-user distributions are computed
  // independently; worst = max over users).
  double worst_p99_ms = 0.0;
  double mean_ms = 0.0;  // over all interactive users' keystrokes
  double perceptible_fraction = 0.0;
  // Effective availability: link availability (1 - outage fraction) times the fraction
  // of user time NOT spent starved — starved meaning some keystroke echo has been
  // pending for longer than starve_after, which catches both total paint droughts and
  // sustained bufferbloat lag. Degradation cannot heal outages, but it can keep the
  // session responsive — which is what this measures.
  double availability = 1.0;
  // Worst user's starved-time fraction.
  double worst_starved_fraction = 0.0;
  int64_t updates = 0;
  // Degradation ledger (all zero with degrade=false).
  int degradation_peak_level = 0;
  int64_t degradation_transitions = 0;
  double degraded_seconds = 0.0;
  int64_t animation_frames_skipped = 0;
  int64_t background_frames_drawn = 0;
  FaultStats faults;
  AttributionResult blame;
  SloReport slo;
  RunStats run;
};

WanPoint RunWanPoint(const OsProfile& profile, const WanOptions& options,
                     const ObsConfig* obs = nullptr);

// ---------------------------------------------------------------------------
// Counterfactual what-if analysis
//
// "Would a faster link actually help?" One what-if cell runs a WAN point twice: a
// baseline with per-interaction records retained, and an *achieved* arm re-simulated
// with one component virtually sped up (link rate x k, CPU x k, disk x k, or RTT - d).
// The baseline records also feed PredictAdjustedTotalUs (src/obs/attribution.h), which
// rescales each interaction's affected stages in isolation. The report pairs the
// *predicted* p99 delta against the *achieved* one — the gap between them is exactly
// the second-order effects (queue drain, fewer RTOs, different batching) the analytical
// model cannot see. Both arms are deterministic, so every field except run.wall_ms is
// byte-identical across reruns and sweep worker counts.

struct WhatIfOptions {
  WanOptions wan;           // the baseline cell (profile, users, duration, seed)
  WhatIfAdjustment adjust;  // the counterfactual applied to the achieved arm
};

struct WhatIfResult {
  std::string os_name;
  std::string profile;
  std::string component;    // WhatIfComponentName(adjust.component)
  double speedup = 1.0;
  int64_t rtt_delta_us = 0;
  int64_t interactions = 0;          // committed baseline interactions
  // Nearest-rank p99 end-to-end micros (same estimator as AttributionResult).
  int64_t baseline_p99_us = 0;
  int64_t predicted_p99_us = 0;      // stage rescaling over baseline records
  int64_t achieved_p99_us = 0;       // re-simulated with the adjustment applied
  int64_t predicted_delta_us = 0;    // baseline - predicted (positive = improvement)
  int64_t achieved_delta_us = 0;     // baseline - achieved
  // Baseline records whose stages do not tile [sent, painted]: the engine's accounting
  // plus network mismatches (a stage sum off the total, or a negative stage; always 0).
  int64_t critical_path_mismatches = 0;
  WanPoint baseline;                 // baseline cell, blame includes net decomposition
  WanPoint adjusted;                 // the achieved arm
  RunStats run;                      // summed over both arms
};

// Runs the baseline and adjusted arms and fills the prediction-vs-achievement report.
// The adjustment maps onto the re-simulation as: kLink scales the profile's down/up
// rates by k; kCpu sets WanOptions.cpu_speed = k; kDisk sets disk_speedup = k; kRtt
// subtracts d/2 from the profile's one-way extra_delay (clamped at zero).
WhatIfResult RunWhatIf(const OsProfile& profile, const WhatIfOptions& options,
                       const ObsConfig* obs = nullptr);

}  // namespace tcs

#endif  // TCS_SRC_CORE_EXPERIMENTS_H_
