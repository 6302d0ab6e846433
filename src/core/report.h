// Structured JSON reports for experiment results.
//
// Each ToJson overload renders one result struct (including its RunStats) as a
// self-describing JSON object, so experiment output can be archived next to the trace and
// metrics files and diffed/consumed by scripts. Field order is fixed; all simulated
// quantities are deterministic for a given seed (run.wall_ms is the one exception).

#ifndef TCS_SRC_CORE_REPORT_H_
#define TCS_SRC_CORE_REPORT_H_

#include <string>

#include "src/core/admission.h"
#include "src/core/experiments.h"

namespace tcs {

// The per-stage latency-attribution ("blame") block: exact-microsecond totals plus
// nearest-rank p50/p99 per stage. Deterministic byte-for-byte (no wall clock), so blame
// output can be compared across reruns and sweep worker counts with cmp(1).
std::string ToJson(const AttributionResult& r);

std::string ToJson(const TypingUnderLoadResult& r);
std::string ToJson(const PagingLatencyResult& r);
std::string ToJson(const EndToEndResult& r);
std::string ToJson(const ChaosPoint& r);
std::string ToJson(const WanPoint& r);
// The what-if report: the `whatif` block pairs the predicted p99 delta (the baseline
// records' stages rescaled) with the re-simulated (achieved) one, followed by both arms'
// full WanPoint reports.
std::string ToJson(const WhatIfResult& r);
// Just the `whatif` block (no arms, no RunStats): fully deterministic, so sweep drivers
// can assemble reports that cmp(1) clean across reruns and worker counts.
std::string WhatIfBlockJson(const WhatIfResult& r);
std::string ToJson(const SizingPoint& r);
std::string ToJson(const ConsolidationResult& r);
std::string ToJson(const CapacityResult& r);
std::string ToJson(const ProtocolTrafficResult& r);
std::string ToJson(const AnimationLoadResult& r);

}  // namespace tcs

#endif  // TCS_SRC_CORE_REPORT_H_
