// The benchmark's four workloads. Each is a closed loop of steps run on one thread:
// a step starts when the previous one has returned, and each step's host time is one
// sample. Inputs come only from the run seed; the loop runs until `seconds` of host time
// have passed (always at least one full round of steps).

#ifndef TCS_PERFBENCH_WORKLOADS_H_
#define TCS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// The seed the pinned report digests (pinned.h) were taken at.
inline constexpr uint64_t kDefaultSeed = 1;

// §5.2 full-demand paging trials, TSE and Linux alternating, one
// RunPagingLatency(profile, true, 1, seed_i) per step.
Outcome RunPaging(const RunArgs& args);

// 512 TSE logins on a LAN (`wan` false) or 32 over the satellite profile with the
// degradation ladder armed (`wan` true), advanced one simulated second per step.
Outcome RunFleet(const RunArgs& args, bool wan);

// §6.1.2's application scripts replayed over X, LBX and RDP, one
// RunAppWorkloadTraffic call per step.
Outcome RunAppTraffic(const RunArgs& args);

}  // namespace perfbench

#endif  // TCS_PERFBENCH_WORKLOADS_H_
