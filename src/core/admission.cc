#include "src/core/admission.h"

#include <map>
#include <string>
#include <utility>

#include "src/core/checkpoint.h"
#include "src/core/run_support.h"
#include "src/util/config_error.h"

namespace tcs {

using namespace run_support;

ConsolidationOptions Validated(ConsolidationOptions o) {
  if (o.users < 1) {
    throw ConfigError("ConsolidationOptions.users", "must admit at least one user");
  }
  if (!(o.duration > Duration::Zero())) {
    throw ConfigError("ConsolidationOptions.duration", "must be positive");
  }
  if (o.processors < 1) {
    throw ConfigError("ConsolidationOptions.processors", "need at least one processor");
  }
  if (o.ram.count() <= 0) {
    throw ConfigError("ConsolidationOptions.ram", "must be positive");
  }
  if (!(o.keystroke_period > Duration::Zero())) {
    throw ConfigError("ConsolidationOptions.keystroke_period", "must be positive");
  }
  if (o.start_delay < Duration::Zero()) {
    throw ConfigError("ConsolidationOptions.start_delay", "must not be negative");
  }
  if (o.stagger < Duration::Zero()) {
    throw ConfigError("ConsolidationOptions.stagger", "must not be negative");
  }
  if (o.burst_cpu < Duration::Zero()) {
    throw ConfigError("ConsolidationOptions.burst_cpu", "must not be negative");
  }
  if (o.burst_cpu > Duration::Zero() && !(o.burst_period > Duration::Zero())) {
    throw ConfigError("ConsolidationOptions.burst_period",
                      "must be positive when bursts are enabled");
  }
  if (o.sinks < 0) {
    throw ConfigError("ConsolidationOptions.sinks", "must not be negative");
  }
  return o;
}

CapacityOptions Validated(CapacityOptions o) {
  if (o.max_users < 1) {
    throw ConfigError("CapacityOptions.max_users", "must allow at least one user");
  }
  if (!(o.admission.max_utilization > 0.0) || o.admission.max_utilization > 1.0) {
    throw ConfigError("AdmissionConfig.max_utilization", "must be in (0, 1]");
  }
  if (!(o.admission.max_p99_stall > Duration::Zero())) {
    throw ConfigError("AdmissionConfig.max_p99_stall", "must be positive");
  }
  o.behavior.users = 1;  // overwritten per candidate; validate the rest of the shape
  o.behavior = Validated(std::move(o.behavior));
  return o;
}

ConsolidationResult RunConsolidation(const OsProfile& profile,
                                     const ConsolidationOptions& options,
                                     const ObsConfig* obs) {
  // The construction sequence, workload wiring, and result collection all live in
  // ConsolidationRun (src/core/checkpoint.cc) so the cold path and the checkpointed
  // path are one code path — the differential resume-vs-cold guarantee is structural.
  ConsolidationRun run(profile, options, obs);
  run.RunToEnd();
  return run.Finish();
}

bool Admits(AdmissionPolicy policy, const AdmissionConfig& admission,
            const ConsolidationResult& r) {
  switch (policy) {
    case AdmissionPolicy::kUtilization:
      return r.cpu_utilization < admission.max_utilization;
    case AdmissionPolicy::kLatency:
      return r.worst_p99_stall_ms < admission.max_p99_stall.ToMillisF();
  }
  return false;
}

CapacityResult RunServerCapacity(const OsProfile& profile,
                                 const CapacityOptions& options_in, const ObsConfig* obs) {
  CapacityOptions options = Validated(options_in);

  // One evaluation per candidate N, shared between both policies' searches. Every
  // candidate runs with the same seed (not a per-N derived seed): candidate N is
  // exactly "the same morning with N users", and the N=1 candidate is byte-identical
  // to the single-session typing experiment under the same knobs.
  std::map<int, ConsolidationResult> memo;
  auto evaluate = [&](int users) -> const ConsolidationResult& {
    auto it = memo.find(users);
    if (it == memo.end()) {
      ConsolidationOptions copt = options.behavior;
      copt.users = users;
      // Each probe gets its own attribution engine (blame must not mix across
      // candidate runs) and shares the caller's tracer. The caller's metrics registry
      // is deliberately not threaded through: one registry cannot serve gauge sets
      // from many servers.
      AttributionConfig probe_attr;
      probe_attr.tracer = obs != nullptr ? obs->tracer : nullptr;
      LatencyAttribution probe_blame(probe_attr);
      ObsConfig probe_obs;
      probe_obs.tracer = probe_attr.tracer;
      probe_obs.attribution = &probe_blame;
      // Each probe gets its own SLO spec (bundle stem suffixed with the candidate N)
      // and its own run-local recorder, so violating candidates leave distinct,
      // deterministically named forensic bundles. The caller's recorder is deliberately
      // not shared: interleaving probes would corrupt each other's frozen windows.
      SloSpec probe_slo;
      if (obs != nullptr && obs->slo != nullptr && obs->slo->Any()) {
        probe_slo = *obs->slo;
        probe_slo.name += "_u" + std::to_string(users);
        probe_obs.slo = &probe_slo;
      }
      it = memo.emplace(users, RunConsolidation(profile, copt, &probe_obs)).first;
    }
    return it->second;
  };
  // Largest admitted N in [1, max_users]; degradation is monotone in N for a fixed
  // behavior, which is what makes bisection valid here.
  auto max_admitted = [&](AdmissionPolicy policy) {
    int lo = 0;  // invariant: lo == 0 or lo admitted; everything above hi rejected
    int hi = options.max_users;
    while (lo < hi) {
      int mid = lo + (hi - lo + 1) / 2;
      if (Admits(policy, options.admission, evaluate(mid))) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };

  CapacityResult result;
  result.os_name = profile.name;
  result.protocol = ProtocolName(profile.protocol_kind);
  result.latency_sized_users = max_admitted(AdmissionPolicy::kLatency);
  result.utilization_sized_users = max_admitted(AdmissionPolicy::kUtilization);
  result.utilization_over_admits =
      result.utilization_sized_users > result.latency_sized_users;
  for (auto& [users, probe] : memo) {
    result.run.events_executed += probe.run.events_executed;
    result.run.pending_events += probe.run.pending_events;
    result.run.wall_ms += probe.run.wall_ms;
    result.probes.push_back(std::move(probe));
  }
  return result;
}

}  // namespace tcs
