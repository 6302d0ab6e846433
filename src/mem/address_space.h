// Per-process virtual address space: residency and dirty state per virtual page.
//
// AddressSpaces are created and owned by the Pager, which also maintains the global
// recency ordering used for eviction. The `interactive` flag marks spaces belonging to
// user-facing processes; the kInteractiveProtect eviction policy (Evans et al.'s fix,
// §5.2) refuses to steal their pages on behalf of non-interactive faults.
//
// Page state is a flat array indexed by vpn — every workload in the model numbers its
// pages densely from zero (segments are sized in pages, hogs walk a bounded region), so
// a vector beats a hash table by an order of magnitude on the fault/touch path. Each
// entry packs the page's lifecycle state, its physical frame slot while resident, and
// the dirty bit; the Pager interprets the frame slot against its frame slab.
//
// Each space also remembers the page range its last Pager hit run left as one chain of
// the recency list (see `chain_first_`), so a keystroke re-touching its working set
// neither re-checks nor re-walks the pages it touched last time.

#ifndef TCS_SRC_MEM_ADDRESS_SPACE_H_
#define TCS_SRC_MEM_ADDRESS_SPACE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace tcs {

class AddressSpace {
 public:
  AddressSpace(uint64_t id, bool interactive) : id_(id), interactive_(interactive) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint64_t id() const { return id_; }
  bool interactive() const { return interactive_; }

  bool IsResident(uint64_t vpn) const {
    return vpn < pages_.size() && pages_[vpn] >= kFrameBase;
  }
  // True if the page was resident once and has been paged out: re-touching it costs a
  // disk read. A never-touched page zero-fills for free.
  bool WasEvicted(uint64_t vpn) const {
    return vpn < pages_.size() && pages_[vpn] == kEvicted;
  }
  bool IsDirty(uint64_t vpn) const {
    return vpn < pages_.size() && pages_[vpn] >= kFrameBase &&
           ((pages_[vpn] - kFrameBase) & 1u) != 0;
  }
  size_t resident_pages() const { return resident_count_; }
  // The first page in [first, end) that is not resident, or `end` if all are. The
  // recorded chain's pages are all resident, so a run starting inside it skips them.
  uint64_t ResidentRunEnd(uint64_t first, uint64_t end) const {
    if (InChain(first) && first < end) {
      assert(IsResident(first));
      first = std::min(end, chain_end_);
      assert(IsResident(first - 1));
    }
    uint64_t stop = std::min<uint64_t>(end, pages_.size());
    while (first < stop && pages_[first] >= kFrameBase) {
      ++first;
    }
    return first;
  }

  // The packed page entries indexed by vpn (encoding below), frame slots included, so
  // tests can compare two spaces entry for entry.
  const std::vector<uint32_t>& page_entries() const { return pages_; }

  // The most frames a packed page entry can index: frame 2^31 − 1 would encode as
  // 2^32, which wraps to kNever. About 8 TiB of 4 KiB pages.
  static constexpr size_t kMaxFrames = (size_t{1} << 31) - 1;

 private:
  friend class Pager;

  // Packed page entry: kNever (untouched), kEvicted (on disk), or
  // kFrameBase + 2*frame + dirty for a resident page in the Pager's frame slab.
  static constexpr uint32_t kNever = 0;
  static constexpr uint32_t kEvicted = 1;
  static constexpr uint32_t kFrameBase = 2;
  static_assert(kFrameBase + 2 * (kMaxFrames - 1) + 1 == 0xFFFFFFFFu);

  static constexpr uint32_t ResidentEntry(uint32_t frame, bool dirty) {
    return kFrameBase + (frame << 1) + (dirty ? 1u : 0u);
  }
  void EnsurePage(uint64_t vpn) {
    if (vpn >= pages_.size()) {
      pages_.resize(vpn + 1, kNever);
    }
  }
  // Frame slot of a resident page (caller guarantees residency).
  uint32_t FrameOf(uint64_t vpn) const { return (pages_[vpn] - kFrameBase) >> 1; }
  void SetResidentInFrame(uint64_t vpn, uint32_t frame, bool dirty) {
    EnsurePage(vpn);
    uint32_t& e = pages_[vpn];
    if (e < kFrameBase) {
      ++resident_count_;
    }
    e = ResidentEntry(frame, dirty);
  }
  void MarkDirty(uint64_t vpn) { pages_[vpn] |= 1u; }
  // Every page that leaves its frame passes through here, so it also clears the chain
  // record.
  void SetEvicted(uint64_t vpn);
  // MarkSwappedOut setup path: create a never-touched page directly in the evicted state.
  void MarkEvictedUntouched(uint64_t vpn) {
    EnsurePage(vpn);
    pages_[vpn] = kEvicted;
  }

  bool InChain(uint64_t vpn) const { return chain_first_ <= vpn && vpn < chain_end_; }
  void RecordChain(uint64_t first, uint64_t end) {
    chain_first_ = first;
    chain_end_ = end;
  }

  uint64_t id_;
  bool interactive_;
  std::vector<uint32_t> pages_;
  size_t resident_count_ = 0;
  // [chain_first_, chain_end_): the pages of this space that the Pager's last hit run on
  // it moved to the MRU tail (empty when equal). Every page in it is resident, and their
  // frames are consecutive nodes of the recency list in vpn order. That stays true until
  // one of them leaves its frame: a node's own links change only when the node is
  // unlinked (eviction or swap-out, which go through SetEvicted and clear the record) or
  // spliced (a hit run on this space, which records its own range). Anything done to a
  // node outside the chain rewrites at most the outward link of its first or last node.
  uint64_t chain_first_ = 0;
  uint64_t chain_end_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_MEM_ADDRESS_SPACE_H_
