// Streaming memory job (§5.2): "a process that sequentially touches each byte in a region
// whose total size exceeds the available physical memory, causing the pages of the edit
// application's memory to be swapped to disk." Examples from Evans et al.: large NFS data
// copies, big /tmp files, compilation stages.

#ifndef TCS_SRC_WORKLOAD_MEMORY_HOG_H_
#define TCS_SRC_WORKLOAD_MEMORY_HOG_H_

#include "src/mem/pager.h"
#include "src/sim/simulator.h"

namespace tcs {

struct MemoryHogConfig {
  // Pages in the streamed region.
  size_t region_pages = 20000;
  // CPU time spent per page between faults (the touch loop itself).
  Duration touch_cpu = Duration::Micros(50);
  // Whether the region is written (dirty pages force eviction writebacks) or only read.
  bool writes = true;
};

// Throws tcs::ConfigError on an empty region or a non-positive touch time. Returns the
// config.
MemoryHogConfig Validated(MemoryHogConfig config);

class MemoryHog {
 public:
  MemoryHog(Simulator& sim, Pager& pager, MemoryHogConfig config = {});

  MemoryHog(const MemoryHog&) = delete;
  MemoryHog& operator=(const MemoryHog&) = delete;

  // Begins streaming; wraps around the region indefinitely. A second call is a no-op.
  void Start();

  AddressSpace* address_space() const { return as_; }
  int64_t pages_touched() const { return pages_touched_; }

 private:
  void TouchNext();
  void OnTouched();

  Simulator& sim_;
  Pager& pager_;
  MemoryHogConfig config_;
  AddressSpace* as_;
  uint64_t next_vpn_ = 0;
  int64_t pages_touched_ = 0;
  bool running_ = false;
};

}  // namespace tcs

#endif  // TCS_SRC_WORKLOAD_MEMORY_HOG_H_
