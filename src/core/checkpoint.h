// The interactive-run driver.
//
// ConsolidationRun is the only code that builds a Server for an interactive run.
// RunConsolidation and RunTypingUnderLoad drive it directly; the sizing, end-to-end,
// chaos, and WAN runners in experiments.cc are presets that add a Scenario
// (scenario.h). The clock is in the caller's hands.
//
// A run is a pure function of its profile, options, scenario and the shape of its
// ObsConfig. A tracer schedules no events and draws no randomness, so attaching one
// changes nothing the model does: `tcsctl postmortem --rewind-ms=N` re-runs a violating
// experiment with a tracer attached and sees the same history to the microsecond.

#ifndef TCS_SRC_CORE_CHECKPOINT_H_
#define TCS_SRC_CORE_CHECKPOINT_H_

#include <memory>

#include "src/core/admission.h"
#include "src/obs/metrics.h"

namespace tcs {

class Server;
class Simulator;
struct Scenario;
struct ScenarioOutcome;

class ConsolidationRun {
 public:
  // Validates the options and builds the run in RunConsolidation's order: config,
  // server, daemons, logins in order, stall taps, typists, optional burst tasks, sinks,
  // SLO watchdog. Throws ConfigError on bad options. `obs` must outlive the run.
  ConsolidationRun(const OsProfile& profile, const ConsolidationOptions& options,
                   const ObsConfig* obs = nullptr);
  // The same sequence plus a preset's scenario content (src/core/scenario.h).
  ConsolidationRun(const OsProfile& profile, const ConsolidationOptions& options,
                   const Scenario& scenario, const ObsConfig* obs);
  ~ConsolidationRun();

  ConsolidationRun(const ConsolidationRun&) = delete;
  ConsolidationRun& operator=(const ConsolidationRun&) = delete;

  // Advances virtual time to the absolute instant `t` (events at exactly `t` run).
  void RunUntil(TimePoint t);
  // Runs to the configured natural end (start_delay + duration).
  void RunToEnd();
  TimePoint end_time() const;

  Simulator& sim();
  const Simulator& sim() const;
  Server& server();

  // Collects the ConsolidationResult. Call exactly once, after reaching end_time(). With
  // a client attached, typing stops and one more simulated second runs first.
  ConsolidationResult Finish();

  // Paint records, fault ledger, and availability for the presets; final after Finish().
  const ScenarioOutcome& outcome() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tcs

#endif  // TCS_SRC_CORE_CHECKPOINT_H_
