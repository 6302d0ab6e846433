// Paging device model.
//
// A single-spindle disk with FIFO queueing: each request is serviced after all earlier
// ones, paying a positioning cost (randomized seek + rotation) plus per-page transfer
// time. Pages beyond the first in a clustered request pay a tenth of the positioning
// cost. Late-1990s commodity-disk defaults.

#ifndef TCS_SRC_MEM_DISK_H_
#define TCS_SRC_MEM_DISK_H_

#include <cstdint>

#include "src/fault/fault_injector.h"
#include "src/obs/emitter.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/units.h"

namespace tcs {

// The page the pager maps and the disk transfers: the x86 4 KiB page.
inline constexpr Bytes kPageSize = Bytes::Of(4096);

// Pages that hold `b` bytes (rounded up).
constexpr size_t PagesFor(Bytes b) {
  return static_cast<size_t>((b.count() + kPageSize.count() - 1) / kPageSize.count());
}

struct DiskConfig {
  Duration positioning_mean = Duration::Millis(8);
  Duration positioning_stddev = Duration::Millis(3);
  Duration positioning_min = Duration::Millis(2);
  // Sustained media rate; a 4 KiB page at 5 MB/s is ~0.8 ms.
  BitsPerSecond transfer_rate = BitsPerSecond::Mbps(40);
};

// Throws tcs::ConfigError on a non-positive transfer rate or a negative positioning
// cost. Returns the config.
DiskConfig Validated(DiskConfig config);

class Disk {
 public:
  Disk(Simulator& sim, Rng rng, DiskConfig config = {});

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Enqueues a read of `pages` contiguous pages; `done` fires when the transfer completes.
  void Read(int pages, InlineCallback done);

  // Enqueues a write of `pages` pages; `done` (optional) fires at completion. Used for
  // dirty-page eviction, which is typically fire-and-forget but still occupies the queue.
  void Write(int pages, InlineCallback done = nullptr);

  // Time at which the device drains everything currently queued.
  TimePoint busy_until() const { return busy_until_; }
  bool IsBusyAt(TimePoint t) const { return busy_until_ > t; }

  // Observability: each request becomes a mem-category trace span covering its service
  // window on the device (queueing excluded; the `queue_us` arg records it).
  void Attach(Emitter emit);

  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  int64_t pages_read() const { return pages_read_; }
  int64_t pages_written() const { return pages_written_; }
  Duration total_busy() const { return total_busy_; }

  // Fault injection (non-owning; null = healthy device, the default). An attached
  // injector perturbs per-request service time with stalls and retried I/O errors.
  void SetFaultInjector(DiskFaultInjector* injector) { fault_ = injector; }

 private:
  Duration ServiceTime(int pages);
  void Enqueue(const char* op, int pages, InlineCallback done);

  Simulator& sim_;
  Rng rng_;
  DiskConfig config_;
  DiskFaultInjector* fault_ = nullptr;
  Emitter emit_;
  TraceTrack trace_track_;
  TimePoint busy_until_ = TimePoint::Zero();
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  int64_t pages_read_ = 0;
  int64_t pages_written_ = 0;
  Duration total_busy_ = Duration::Zero();
};

}  // namespace tcs

#endif  // TCS_SRC_MEM_DISK_H_
