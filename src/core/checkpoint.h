// The interactive-run driver, with deterministic checkpoint/restore (fork-from-snapshot).
//
// ConsolidationRun is the only code that builds a Server for an interactive run.
// RunConsolidation and RunTypingUnderLoad drive it directly; the sizing, end-to-end,
// chaos, and WAN runners in experiments.cc are presets that add a Scenario
// (scenario.h). The clock is in the caller's hands.
//
// Between RunUntil steps the caller can Snapshot() the full dynamic state — kernel
// event queue, scheduler, pager, protocol encoders, reliable channel, flow counters,
// degradation controller, every RNG stream, and the per-user instrumentation (stall
// taps, typists, burst tasks, SLO watchdog, gauge sampler) — into a framed, versioned,
// CRC-guarded blob, and later Restore() it into a freshly constructed run of the same
// shape. A restored run is sample-for-sample identical to the run that would have been:
// same stall samples to the microsecond, same report fields (modulo wall_ms), same
// trace events. That equivalence is what the differential test harness
// (tests/core_checkpoint_diff_test.cc) locks down. Runs with a client device attached
// do not snapshot yet.
//
// Restore is rebuild-then-overwrite: construction replays the exact original sequence
// (so all closures, topology, and construction-derived state exist), then the snapshot
// overwrites the dynamic state and re-arms every pending event with its original
// (time, sequence) pair through an EventRearm plan whose commit verifies the rebuilt
// queue against the snapshot's manifest. Construction-time events are dropped wholesale
// by ResetKernel; nothing from the replayed construction survives into the resumed run.
//
// One consumer rides on top: `tcsctl postmortem consolidation --rewind-ms=N` keeps a
// checkpoint ring during the monitored run; on the first SLO violation the newest
// checkpoint at least N virtual milliseconds before the violation is forked with a
// tracer attached, replaying the approach to the violation that the original
// (trace-off) run could not record.

#ifndef TCS_SRC_CORE_CHECKPOINT_H_
#define TCS_SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/admission.h"
#include "src/obs/metrics.h"
#include "src/sim/snapshot.h"

namespace tcs {

class Server;
class Simulator;
struct Scenario;
struct ScenarioOutcome;

// The driver's own top-level snapshot section (per-user taps/typists/bursts plus the
// SLO watchdog and gauge sampler). Kernel state is tag 1 (SaveKernel); the server's
// sections are the ServerSection enum (src/session/server.h).
inline constexpr uint32_t kCheckpointDriverSection = 0x4452;  // "DR"

// Names any top-level section tag a ConsolidationRun snapshot can contain — kernel,
// driver, or one of the server's — so differential tests report "server.pager differs"
// instead of "bytes differ".
const char* CheckpointSectionName(uint32_t tag);

class ConsolidationRun {
 public:
  // Validates and replays RunConsolidation's construction sequence: config, server,
  // daemons, logins in order, stall taps, typists, optional burst tasks, sinks, SLO
  // watchdog. Throws ConfigError on bad options. `obs` must outlive the run.
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

  // SLO verdict so far (false / -1 when no SLO is attached or nothing violated yet).
  bool SloViolated() const;
  int64_t SloViolatedAtUs() const;

  // Serializes the full dynamic state. Callable at any point before Finish(). Throws
  // SnapshotError on a run with a client device attached.
  std::vector<uint8_t> Snapshot() const;

  // Overwrites this run's dynamic state from `blob`. `this` must be freshly
  // constructed — same profile, options, and ObsConfig *shape* (the tracer may differ:
  // tracing is passive, which is exactly what lets a rewound replay attach one).
  // Throws SnapshotError on corruption, topology drift, or shape mismatch.
  void Restore(const std::vector<uint8_t>& blob);

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
