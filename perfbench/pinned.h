// Report digests pinned at the default seed (workloads.h kDefaultSeed): FNV-1a of each
// step's ToJson report with RunStats zeroed, for the first steps — paging's first TSE
// and Linux trials, app_traffic's X, LBX and RDP replays of the first script set, and
// the first episode of consolidation and wan. A change meant to keep every simulated byte must leave these
// alone; one meant to change the model re-pins them from the run's "report digests"
// note at --seed 1.

#ifndef TCS_PERFBENCH_PINNED_H_
#define TCS_PERFBENCH_PINNED_H_

#include <string>
#include <vector>

namespace perfbench {

inline std::vector<std::string> PinnedDigests(const std::string& workload) {
  if (workload == "paging") {
    return {"9ae15f5565aebed0", "3cd4023fe4f557de"};
  }
  if (workload == "consolidation") {
    return {"ac426d696838cc46"};
  }
  if (workload == "wan") {
    return {"5754ae8b4dabea36"};
  }
  if (workload == "app_traffic") {
    return {"d41d85fbaf03bdbf", "e191d0cfc8075f41", "86d31bff734eb553"};
  }
  return {};
}

}  // namespace perfbench

#endif  // TCS_PERFBENCH_PINNED_H_
