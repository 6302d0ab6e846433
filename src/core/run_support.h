// Shared plumbing for experiment runners.
//
// Every runner in src/core follows the same frame: stamp a wall clock, wire the
// optional ObsConfig (tracer, metrics sampler, attribution engine, SLO watchdog)
// through the stack, run the simulation, then collect kernel counters and blame. These
// helpers are that frame, shared by the interactive driver (checkpoint.cc), the
// capacity search (admission.cc), and the paging and protocol-only runners
// (experiments.cc). Internal to src/core — not part of the library surface.

#ifndef TCS_SRC_CORE_RUN_SUPPORT_H_
#define TCS_SRC_CORE_RUN_SUPPORT_H_

#include <chrono>
#include <memory>
#include <sstream>

#include "src/core/admission.h"
#include "src/core/experiments.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo.h"
#include "src/session/server.h"

namespace tcs {
namespace run_support {

using WallClock = std::chrono::steady_clock;

// Adds one simulator run's kernel counters and wall-clock time into `rs`.
inline void FinishRun(RunStats& rs, const Simulator& sim, WallClock::time_point t0) {
  rs.events_executed += sim.events_executed();
  rs.pending_events += sim.pending_events();
  rs.wall_ms +=
      std::chrono::duration<double, std::milli>(WallClock::now() - t0).count();
}

// Mirrors the kernel's pending-event depth as a sim-category counter track.
void AttachSimHook(Simulator& sim, const ObsConfig* obs);

// Starts gauge sampling if the ObsConfig carries a registry; null otherwise.
std::unique_ptr<PeriodicSampler> StartSampler(Simulator& sim, const ObsConfig* obs);

// Owns the run's PeriodicSampler; on destruction renders the sampled gauge series into
// obs->sampler_csv (when requested) so the data survives the experiment's scope.
class SamplerScope {
 public:
  SamplerScope(Simulator& sim, const ObsConfig* obs)
      : obs_(obs), sampler_(StartSampler(sim, obs)) {}
  ~SamplerScope() {
    if (sampler_ != nullptr && obs_->sampler_csv != nullptr) {
      std::ostringstream out;
      sampler_->WriteCsv(out);
      *obs_->sampler_csv = out.str();
    }
  }
  SamplerScope(const SamplerScope&) = delete;
  SamplerScope& operator=(const SamplerScope&) = delete;

 private:
  const ObsConfig* obs_;
  std::unique_ptr<PeriodicSampler> sampler_;
};

inline void ApplyObs(ServerConfig& cfg, const ObsConfig* obs) {
  if (obs != nullptr) {
    cfg.tracer = obs->tracer;
    cfg.metrics = obs->metrics;
    cfg.attribution = obs->attribution;
    cfg.recorder = obs->recorder;
  }
}

// Per-run SLO harness. When the ObsConfig carries an SloSpec with at least one active
// objective, this owns the run's watchdog — and, when the caller did not attach a
// FlightRecorder of its own, a run-local recorder, so a trace-off sweep cell still
// yields a full forensic bundle on violation. Inert (all methods no-ops / nullptr)
// when no SLO was requested, preserving the null-sink contract.
class SloRuntime {
 public:
  SloRuntime(Simulator& sim, const ObsConfig* obs) {
    if (obs == nullptr || obs->slo == nullptr || !obs->slo->Any()) {
      return;
    }
    FlightRecorder* recorder = obs->recorder;
    if (recorder == nullptr) {
      owned_recorder_ = std::make_unique<FlightRecorder>();
      recorder = owned_recorder_.get();
    }
    watchdog_ = std::make_unique<SloWatchdog>(sim, *obs->slo, recorder, obs->metrics,
                                              obs->attribution);
  }

  SloRuntime(const SloRuntime&) = delete;
  SloRuntime& operator=(const SloRuntime&) = delete;

  bool active() const { return watchdog_ != nullptr; }
  SloWatchdog* watchdog() const { return watchdog_.get(); }

  // Points the server at the run-local recorder when this runtime owns one (a
  // caller-supplied recorder was already wired by ApplyObs).
  void ApplyTo(ServerConfig& cfg) const {
    if (owned_recorder_ != nullptr) {
      cfg.recorder = owned_recorder_.get();
    }
  }

  void Start() {
    if (watchdog_ != nullptr) {
      watchdog_->Start();
    }
  }

  // Settles the run's SLO verdict into `out` (no-op when inactive).
  void Finish(SloReport& out, double availability) {
    if (watchdog_ != nullptr) {
      out = watchdog_->FinishRun(availability);
    }
  }

 private:
  std::unique_ptr<FlightRecorder> owned_recorder_;
  std::unique_ptr<SloWatchdog> watchdog_;
};

}  // namespace run_support
}  // namespace tcs

#endif  // TCS_SRC_CORE_RUN_SUPPORT_H_
