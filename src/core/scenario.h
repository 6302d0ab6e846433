// The scenario content experiment presets add to a ConsolidationRun.
//
// ConsolidationRun (src/core/checkpoint.cc) is the one driver that builds a Server for
// an interactive run. RunConsolidation, RunTypingUnderLoad, RunServerSizing and the
// capacity searches drive it with ConsolidationOptions alone. RunEndToEndLatency,
// RunChaosPoint and RunWanPoint (src/core/experiments.cc) also fill in a Scenario, run
// the driver, and map the per-user records in its ScenarioOutcome onto their own result
// structs. Internal to src/core — not part of the library surface.

#ifndef TCS_SRC_CORE_SCENARIO_H_
#define TCS_SRC_CORE_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/client/thin_client.h"
#include "src/fault/fault_plan.h"
#include "src/metrics/latency.h"
#include "src/sim/time.h"
#include "src/util/stats.h"

namespace tcs {

struct Scenario {
  // An attached client device decides the kind of run. With one, every user keeps a
  // keystroke-to-paint PaintRecord and Finish() adds a 1 s drain after typing stops so
  // in-flight updates land; without one, users keep the Figure-3 stall taps.
  std::optional<ThinClientConfig> client;
  // Seeded fault plan. ConsolidationOptions.wan, when set, replaces its link.wan and seed.
  FaultPlan faults;
  double background_mbps = 0.0;     // Poisson load sharing the session link
  bool background_session = false;  // one light login streaming media into the downlink
  // A painted keystroke whose total exceeds this counts as perceptible.
  Duration threshold = Duration::Millis(150);
  // With a horizon, an echo pending longer than this bills its user starved time, the
  // live SLO starvation objective watches it, and availability is scaled by it.
  std::optional<Duration> starve_after;
  // Attribute even when the caller's ObsConfig carries no engine (the result's blame).
  bool local_attribution = false;
  // What-if virtual hardware: CpuConfig.speed multiplier, swap-disk speedup. 1.0 = stock.
  double cpu_speed = 1.0;
  double disk_speedup = 1.0;
};

// One user's painted keystrokes (client runs only).
struct PaintRecord {
  // Mean legs of the keystroke's latency, milliseconds: sent -> arrived -> emitted ->
  // delivered -> painted on its InteractionRecord.
  RunningStats input_ms;
  RunningStats server_ms;
  RunningStats display_ms;
  RunningStats client_ms;
  LatencyRecorder latency;  // end-to-end totals, exact microseconds
  int64_t perceptible = 0;  // totals above Scenario::threshold
  // Starvation ledger (with Scenario::starve_after): per painted batch the window
  // [keystroke + starve_after, painted], unioned via counted_through so overlapping
  // batches are not billed twice.
  TimePoint counted_through;  // starved time accounted up to here
  bool pending = false;       // a keystroke awaiting its echo
  TimePoint pending_since;
  Duration starved = Duration::Zero();
  double starved_fraction = 0.0;  // of the typing window plus drain; set by Finish()
};

// What a preset reads back after ConsolidationRun::Finish().
struct ScenarioOutcome {
  std::vector<PaintRecord> paints;  // one per user, login order (client runs only)
  FaultStats faults;                // over start_delay + duration + drain (client runs)
  // faults.availability scaled by the fraction of user time not starved; 1.0 without
  // a client. The SLO availability objective is scored against it.
  double availability = 1.0;
  int64_t background_frames_drawn = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_CORE_SCENARIO_H_
