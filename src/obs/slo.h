// Declarative per-run SLOs evaluated in virtual time, with automatic postmortems.
//
// The paper's sizing argument is about objectives, not averages: a server is big enough
// when the *worst* user's interaction latency stays humanly imperceptible, sessions stay
// available under faults, and the access link never builds a standing queue. An SloSpec
// states those objectives declaratively; an SloWatchdog evaluates them against a running
// experiment — every 100 ms of virtual time for the ones that can be watched live
// (worst-user p99, link backlog) and at end of run for the ones only the full run
// defines (total starvation, availability).
//
// On the first violation the watchdog freezes the attached FlightRecorder's window and
// snapshots the metrics gauges; FinishRun() then emits a postmortem bundle — the frozen
// Perfetto window (<name>.trace.json) plus a forensic summary (<name>.postmortem.json:
// the violated objective, every objective's limit/observed/pass, gauge values at the
// freeze, a per-stage blame digest when a LatencyAttribution engine was attached, and
// the window's extent). Every byte derives from virtual time and the spec, so bundles
// are deterministically named and byte-identical across reruns and ParallelSweep
// --jobs counts — a 512-point chaos sweep can run trace-off and still hand back a full
// forensic bundle for each violating cell.

#ifndef TCS_SRC_OBS_SLO_H_
#define TCS_SRC_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/periodic.h"
#include "src/sim/simulator.h"

namespace tcs {

// One run's objectives. A zero (or, for the fraction, negative) limit disables that
// objective, so a default-constructed spec checks nothing.
struct SloSpec {
  // Worst-user interaction p99 must stay at or below this many milliseconds.
  double max_worst_p99_ms = 0.0;
  // At most this fraction of users may be totally starved (never two updates).
  double max_starved_fraction = -1.0;
  // Session availability under faults must stay at or above this fraction.
  double min_availability = 0.0;
  // The shared link's backlog must never exceed this many bytes.
  int64_t max_link_backlog_bytes = 0;
  // Deterministic bundle stem: files are <out_dir>/<name>.trace.json and
  // <out_dir>/<name>.postmortem.json.
  std::string name = "run";
  // Empty = evaluate objectives but write no files.
  std::string out_dir;

  bool Any() const {
    return max_worst_p99_ms > 0.0 || max_starved_fraction >= 0.0 ||
           min_availability > 0.0 || max_link_backlog_bytes > 0;
  }
};

struct SloObjectiveResult {
  std::string objective;
  double limit = 0.0;
  double observed = 0.0;
  bool passed = true;
};

struct SloReport {
  bool active = false;  // an SloSpec with objectives was attached to the run
  bool passed = true;
  int64_t violated_at_us = -1;  // virtual time of the first violation; -1 = none
  std::string violating_objective;
  std::vector<SloObjectiveResult> objectives;  // configured objectives, fixed order
  std::vector<std::string> postmortems;        // bundle files written, in write order
};

// Deterministic JSON rendering of the report (the experiment reports' "slo" block).
std::string ToJson(const SloReport& r);

class SloWatchdog {
 public:
  // `recorder` must be non-null (the postmortem window comes from it); `metrics` and
  // `attribution` are optional enrichments for the bundle.
  SloWatchdog(Simulator& sim, SloSpec spec, FlightRecorder* recorder,
              MetricsRegistry* metrics, LatencyAttribution* attribution);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  // Runners that build a run-local attribution engine (chaos points) point the bundle's
  // blame digest at it here; call before any violation can fire.
  void SetAttribution(LatencyAttribution* attribution) { attribution_ = attribution; }

  // Live-objective data sources; experiments wire whichever they can answer.
  void SetWorstP99Source(std::function<double()> worst_p99_ms) {
    worst_p99_ms_ = std::move(worst_p99_ms);
  }
  void SetStarvationSource(std::function<double()> starved_fraction) {
    starved_fraction_ = std::move(starved_fraction);
  }
  void SetLinkBacklogSource(std::function<int64_t()> backlog_bytes) {
    backlog_bytes_ = std::move(backlog_bytes);
  }

  // Arms the periodic live checks (p99 and backlog; starvation and availability are
  // whole-run objectives and only evaluated by FinishRun).
  void Start();

  // Final evaluation of every configured objective; freezes the recorder if a violation
  // was (or is now) detected, writes the postmortem bundle when the spec names an
  // out_dir, and returns the filled report. Call exactly once, after RunUntil.
  SloReport FinishRun(double availability = 1.0);

  bool violated() const { return violated_; }

 private:
  void Check();
  void Violate(const char* objective, double limit, double observed);
  void WriteBundle(SloReport& report);
  std::string BlameDigestJson() const;

  Simulator& sim_;
  SloSpec spec_;
  FlightRecorder* recorder_;
  MetricsRegistry* metrics_;
  LatencyAttribution* attribution_;
  PeriodicTask task_;

  std::function<double()> worst_p99_ms_;
  std::function<double()> starved_fraction_;
  std::function<int64_t()> backlog_bytes_;

  bool violated_ = false;
  int64_t violated_at_us_ = -1;
  std::string violating_objective_;
  double violating_limit_ = 0.0;
  double violating_observed_ = 0.0;
  int64_t peak_backlog_bytes_ = 0;  // max over live checks (drains by end of run)
  // Gauge name -> value at the freeze instant, registration order.
  std::vector<std::pair<std::string, double>> frozen_gauges_;
};

}  // namespace tcs

#endif  // TCS_SRC_OBS_SLO_H_
