// Global page-frame manager.
//
// Implements the behaviour §5.2 of the paper analyzes: a single pool of physical frames
// shared by all processes, reclaimed in global LRU order. A streaming job with high page
// demand therefore evicts every idle process — including the interactive editor a user has
// merely paused reading — and the next keystroke pays a disk storm.
//
// Two eviction policies:
//   kGlobalLru          — strict global recency order (what TSE and Linux do).
//   kInteractiveProtect — Evans et al.'s fix: pages of interactive address spaces are not
//                         stolen to satisfy non-interactive faults, and non-interactive
//                         faulters are throttled once memory is saturated.
//
// The recency order is an intrusive doubly-linked list threaded through a flat frame
// slab, with each AddressSpace page entry holding its frame's slab index directly. A
// page touch is therefore a couple of array indexations — no hashing, no list-node
// allocation — while preserving the exact LRU eviction order of the original
// list+hash-map implementation (the golden corpus notices any deviation). Hits come in
// runs of resident pages (a keystroke re-touching its working set, the hog streaming its
// region): a run's pages that are already chained in the list move to the MRU tail as
// one splice, which leaves the same order as moving them one page at a time.

#ifndef TCS_SRC_MEM_PAGER_H_
#define TCS_SRC_MEM_PAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mem/address_space.h"
#include "src/mem/disk.h"
#include "src/obs/trace.h"
#include "src/sim/inline_callback.h"
#include "src/sim/simulator.h"

namespace tcs {

class FlightRecorder;

enum class EvictionPolicy { kGlobalLru, kInteractiveProtect };

struct PagerConfig {
  // Frames available to user pages (kernel/wired memory already excluded).
  size_t total_frames = 16384;  // 64 MiB of 4 KiB pages
  // Pages per clustered disk I/O when faulting a contiguous range. Linux 2.0 swapped in
  // single pages; 1 models that. Larger values model readahead.
  size_t cluster_pages = 1;
  EvictionPolicy policy = EvictionPolicy::kGlobalLru;
  // Under kInteractiveProtect: extra delay imposed on each non-interactive fault while
  // memory is saturated (the "non-interactive process throttling" of Evans et al.).
  Duration throttle_delay = Duration::Millis(20);
};

// Handle returned by Pager::AcquireShared. `created` is true on the first acquire of a
// key — the caller owns sizing/prefaulting the segment exactly once.
struct SharedSegment {
  AddressSpace* space = nullptr;
  bool created = false;
};

class Pager {
 public:
  Pager(Simulator& sim, Disk& disk, PagerConfig config = {});

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // Creates an address space owned by this pager.
  AddressSpace* CreateAddressSpace(std::string name, bool interactive);

  // Refcounted shared segments (§5.1.1: text/code pages resident once however many
  // sessions map them). The first acquire of `key` creates the address space; later
  // acquires return the same space. Every acquire must be paired with a ReleaseShared;
  // the last release destroys the space and frees its frames.
  SharedSegment AcquireShared(const std::string& key, bool interactive);
  void ReleaseShared(const std::string& key);

  // Destroys an address space created by CreateAddressSpace: its resident pages are
  // dropped from the frame pool (teardown, not simulated eviction — no writeback I/O)
  // and the space itself is freed. Pending page-in waiters complete immediately.
  void ReleaseAddressSpace(AddressSpace* as);

  // Touches one page.
  //  * resident: recency update, `done` fires immediately (as a fresh simulation event);
  //  * never touched: zero-fill fault — a frame is reclaimed but no I/O happens;
  //  * previously evicted: a frame is reclaimed and the page is read back from disk;
  //    `done` fires when the read completes.
  void Access(AddressSpace& as, uint64_t vpn, bool write, InlineCallback done);

  // Access's hit bookkeeping (hit count, recency, dirty bit) with no completion event,
  // for callers that continue at the touch instants themselves: touches first, first+1,
  // ... in order and stops before the first of the `count` pages that is not resident or
  // whose page-in is still on the disk. Returns the number of pages it touched.
  size_t TryHit(AddressSpace& as, uint64_t first, size_t count, bool write);

  // Touches [first, first+count). Previously-evicted pages are clustered into
  // up-to-`cluster_pages` contiguous disk reads issued back to back; `done` fires when
  // the last read completes (immediately if nothing needs I/O).
  void AccessRange(AddressSpace& as, uint64_t first, size_t count, bool write,
                   InlineCallback done);

  // Test/setup utility: marks [first, first+count) as swapped out (previously resident,
  // now on disk) without simulating the history that put it there.
  void MarkSwappedOut(AddressSpace& as, uint64_t first, size_t count);

  // Makes [first, first+count) resident instantly with no simulated I/O — used to set up
  // initial conditions (a login's processes are loaded before the experiment starts).
  // Recency, evictions and fault trace instants are those of touching the pages in
  // order; the hit and fault counters are left as they were.
  void Prefault(AddressSpace& as, uint64_t first, size_t count);

  size_t total_frames() const { return config_.total_frames; }
  size_t frames_used() const { return frames_used_; }
  size_t frames_free() const { return config_.total_frames - frames_used_; }
  bool IsSaturated() const { return frames_free() == 0; }

  int64_t faults() const { return faults_; }
  int64_t hits() const { return hits_; }
  int64_t evictions() const { return evictions_; }
  int64_t dirty_writebacks() const { return dirty_writebacks_; }
  int64_t protected_skips() const { return protected_skips_; }
  // Shared-segment gauges: live segments, total attaches (first acquires excluded), and
  // accesses that joined an in-flight page-in instead of issuing their own disk read.
  size_t shared_segments() const { return shared_.size(); }
  int64_t shared_attaches() const { return shared_attaches_; }
  int64_t coalesced_waits() const { return coalesced_waits_; }

  const PagerConfig& config() const { return config_; }

  // Observability: faults/evictions/writebacks become mem-category instants and each
  // AccessRange that touches the disk becomes a "page-in" span. One branch when null.
  void SetTracer(Tracer* tracer);

  // Flight recorder: faulting accesses become one batched "faults" mem instant each
  // (faulted page count + address space) and disk-touching AccessRanges "page-in"
  // spans. One branch when null.
  void SetFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  struct FramesKey {
    static uint64_t Of(const AddressSpace& as, uint64_t vpn) {
      return (as.id() << 44) | vpn;
    }
  };
  static constexpr uint32_t kNilFrame = 0xFFFFFFFFu;
  // One physical frame: who holds it (the id of an AddressSpace in `spaces_`, 0 when
  // free) and which page, and its neighbours in the global recency list (prev toward
  // LRU, next toward MRU). Freed slots chain through `next`. 16 bytes: a 512-login
  // server holds about a million.
  struct Frame {
    uint32_t owner = 0;
    uint32_t vpn = 0;
    uint32_t prev = kNilFrame;
    uint32_t next = kNilFrame;
  };
  // Frames reserved in the slab up front: all of a server up to 8 GiB of user pages, so
  // login prefaults never copy the slab; larger pools grow it on demand.
  static constexpr size_t kReservedFramesCap = size_t{1} << 21;
  // One incomplete Access/AccessRange. The op completes (trace span + `done`) when
  // `remaining` signals arrive: one from its own clustered-read chain (if it has one)
  // plus one from every in-flight read it joined.
  // Pages covered by an op's own reads are already marked resident (MakeResident is
  // synchronous bookkeeping), so a second session touching a shared page mid-read joins
  // the owning op's waiter list and stalls until the same disk completion — one I/O,
  // every mapping session delayed exactly once.
  struct PagerOp {
    size_t remaining = 0;
    InlineCallback done;  // may be null
    // Own I/O chain (empty when the op only joins others' reads). runs[next_run] is the
    // clustered read currently on the disk (or about to be issued after a throttle).
    std::vector<int> runs;
    size_t next_run = 0;
    std::vector<uint64_t> keys;  // in_flight_ entries this op's chain covers
    // Ops that joined this op's in-flight reads; signaled when the chain lands.
    std::vector<uint64_t> waiter_ops;
    // Page-in trace-span state (the span closes at completion).
    bool traced = false;
    TimePoint access_start;
    int64_t count = 0;
    int64_t io_pages = 0;
  };
  // Marks the page resident, evicting as necessary. Returns true if the page had to be
  // faulted (was not resident).
  bool MakeResident(AddressSpace& as, uint64_t vpn, bool write);
  // Applies the hits on [first, end), every page resident: hit count, dirty bits, and
  // the recency update of touching the pages in vpn order, one splice per stretch of
  // pages already chained in that order.
  void HitRun(AddressSpace& as, uint64_t first, uint64_t end, bool write);
  void EvictOneFrame(const AddressSpace& for_whom);
  AddressSpace& OwnerOf(uint32_t f) const { return *spaces_[frames_[f].owner]; }
  // Frame-slab plumbing: allocate a slot (free list first) linked at the MRU tail /
  // unthread a slot from the recency list / move the chained slots head..tail to the
  // MRU tail / return a slot to the free list.
  uint32_t AllocFrame(AddressSpace& as, uint64_t vpn);
  void UnlinkFrame(uint32_t f);
  void LinkFrameAtTail(uint32_t f);
  void SpliceToTail(uint32_t head, uint32_t tail);
  void FreeFrame(uint32_t f);
  Duration ThrottleFor(const AddressSpace& as) const;
  // Drops every frame and in-flight entry belonging to `as` (teardown path).
  void DropFramesOf(AddressSpace& as);

  // Op machinery.
  uint64_t CreateOp(InlineCallback done);
  // One completion signal for `id`; completes the op at zero outstanding.
  void OpSignal(uint64_t id);
  void CompleteOp(uint64_t id);
  // Issues the op's current run on the disk.
  void IssueRead(uint64_t id);
  // The op's current clustered read landed: advance the chain or finish it.
  void OnChainStep(uint64_t id);
  // The op's whole chain landed: release its in-flight entries, signal joiners, then it.
  void ChainComplete(uint64_t id);
  // One completion signal for `id` after `delay`.
  void ScheduleOpFire(uint64_t id, Duration delay);
  // Issues the op's current run on the disk after `delay` (a throttled faulter).
  void ScheduleIssue(uint64_t id, Duration delay);

  Simulator& sim_;
  Disk& disk_;
  PagerConfig config_;
  Tracer* tracer_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  TraceTrack trace_track_;
  // Indexed by AddressSpace id; slot 0 stays empty (the free frames' owner) and a
  // released space's slot is reset.
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  std::vector<Frame> frames_;      // slab; indices live in AddressSpace page entries
  uint32_t lru_head_ = kNilFrame;  // least recently used
  uint32_t lru_tail_ = kNilFrame;  // most recently used
  uint32_t free_head_ = kNilFrame;
  size_t frames_used_ = 0;
  // Ordered maps: teardown iterates these, so iteration order must be a function of
  // contents alone.
  std::map<uint64_t, uint64_t> in_flight_;  // FramesKey -> owning op id
  std::map<uint64_t, PagerOp> ops_;
  uint64_t next_op_id_ = 1;

  struct SharedEntry {
    AddressSpace* space;
    int refs;
  };
  std::unordered_map<std::string, SharedEntry> shared_;

  int64_t faults_ = 0;
  int64_t hits_ = 0;
  int64_t evictions_ = 0;
  int64_t dirty_writebacks_ = 0;
  int64_t protected_skips_ = 0;
  int64_t shared_attaches_ = 0;
  int64_t coalesced_waits_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_MEM_PAGER_H_
