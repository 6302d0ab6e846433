// Differential test for the pager's run hits.
//
// Pager applies the hits on a run of resident pages as one splice per stretch of frames
// already chained in vpn order; AccessRange walks maximal resident runs and takes its
// faults in place, TryHit takes a range, and Prefault sizes the page table once per
// call. The reference below is the per-page pager that code replaced: every hit unlinks
// one frame and relinks it at the MRU tail (TouchLru), Prefault and TryHit loop page by
// page, and its page tables use the same packed entries, so they compare entry for
// entry. Each seed builds two identical worlds, one per pager, and drives both through
// the same random script: 8–200 frames, clusters of 1–4 pages, both eviction
// policies, private and shared spaces (acquired, released, recreated), Access,
// AccessRange, Prefault, MarkSwappedOut and range TryHit over partly resident ranges,
// accesses that join page-ins still on the disk, and RunUntil to random deadlines.
// After every step the pager counters, every space's page entries, the disk queue, the
// pending-event count and the completion log must match. At the end each world faults
// a fresh space across the whole pool, which evicts every frame in LRU order, and the
// evictions must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/mem/disk.h"
#include "src/mem/pager.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

// The per-page pager, without tracer or flight recorder.
class PerPagePager {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr uint32_t kNever = 0;
  static constexpr uint32_t kEvicted = 1;
  static constexpr uint32_t kFrameBase = 2;

  class Space {
   public:
    Space(uint64_t space_id, bool is_interactive)
        : id(space_id), interactive(is_interactive) {}
    const std::vector<uint32_t>& page_entries() const { return pages; }
    size_t resident_pages() const { return resident; }

    bool IsResident(uint64_t vpn) const {
      return vpn < pages.size() && pages[vpn] >= kFrameBase;
    }
    bool WasEvicted(uint64_t vpn) const {
      return vpn < pages.size() && pages[vpn] == kEvicted;
    }
    bool IsDirty(uint64_t vpn) const {
      return IsResident(vpn) && ((pages[vpn] - kFrameBase) & 1u) != 0;
    }
    uint32_t FrameOf(uint64_t vpn) const { return (pages[vpn] - kFrameBase) >> 1; }
    void Ensure(uint64_t vpn) {
      if (vpn >= pages.size()) {
        pages.resize(vpn + 1, kNever);
      }
    }
    void SetEvicted(uint64_t vpn) {
      pages[vpn] = kEvicted;
      --resident;
    }

    uint64_t id;
    bool interactive;
    std::vector<uint32_t> pages;
    size_t resident = 0;
  };

  struct Shared {
    Space* space = nullptr;
    bool created = false;
  };

  PerPagePager(Simulator& sim, Disk& disk, PagerConfig config)
      : sim_(sim), disk_(disk), config_(config) {}

  Space* CreateAddressSpace(const std::string&, bool interactive) {
    spaces_.push_back(std::make_unique<Space>(next_id_++, interactive));
    return spaces_.back().get();
  }

  Shared AcquireShared(const std::string& key, bool interactive) {
    auto it = shared_.find(key);
    if (it != shared_.end()) {
      ++it->second.second;
      ++shared_attaches_;
      return Shared{it->second.first, false};
    }
    Space* space = CreateAddressSpace(key, interactive);
    shared_.emplace(key, std::make_pair(space, 1));
    return Shared{space, true};
  }

  void ReleaseShared(const std::string& key) {
    auto it = shared_.find(key);
    if (--it->second.second == 0) {
      Space* space = it->second.first;
      shared_.erase(it);
      ReleaseAddressSpace(space);
    }
  }

  void ReleaseAddressSpace(Space* as) {
    DropFramesOf(*as);
    for (auto it = spaces_.begin(); it != spaces_.end(); ++it) {
      if (it->get() == as) {
        spaces_.erase(it);
        return;
      }
    }
  }

  void Access(Space& as, uint64_t vpn, bool write, InlineCallback done) {
    Duration throttle = ThrottleFor(as);
    bool needs_disk = as.WasEvicted(vpn);
    bool faulted = MakeResident(as, vpn, write);
    if (!faulted && !in_flight_.empty()) {
      auto fit = in_flight_.find(Key(as, vpn));
      if (fit != in_flight_.end()) {
        ++coalesced_waits_;
        if (done) {
          uint64_t id = CreateOp(std::move(done));
          ops_.at(id).remaining = 1;
          ops_.at(fit->second).waiter_ops.push_back(id);
        }
        return;
      }
    }
    if (!faulted || !needs_disk) {
      Duration delay = faulted ? throttle : Duration::Zero();
      if (done) {
        uint64_t id = CreateOp(std::move(done));
        ops_.at(id).remaining = 1;
        ScheduleOpFire(id, delay);
      }
      return;
    }
    uint64_t id = CreateOp(std::move(done));
    Op& op = ops_.at(id);
    op.remaining = 1;
    op.runs.assign(1, 1);
    op.keys.assign(1, Key(as, vpn));
    in_flight_[op.keys[0]] = id;
    StartChain(id, throttle);
  }

  // The per-page TryHit, looped the way the memory hog called it.
  size_t TryHit(Space& as, uint64_t first, size_t count, bool write) {
    size_t hits = 0;
    while (hits < count && TryHitOne(as, first + hits, write)) {
      ++hits;
    }
    return hits;
  }

  void AccessRange(Space& as, uint64_t first, size_t count, bool write,
                   InlineCallback done) {
    Duration throttle = ThrottleFor(as);
    std::vector<int> runs;
    std::vector<uint64_t> io_keys;
    std::vector<uint64_t> joins;
    size_t current_run = 0;
    uint64_t prev_missing = 0;
    bool have_prev = false;
    for (uint64_t vpn = first; vpn < first + count; ++vpn) {
      bool needs_disk = as.WasEvicted(vpn);
      bool faulted = MakeResident(as, vpn, write);
      if (!needs_disk) {
        if (!faulted && !in_flight_.empty()) {
          auto fit = in_flight_.find(Key(as, vpn));
          if (fit != in_flight_.end() &&
              std::find(joins.begin(), joins.end(), fit->second) == joins.end()) {
            joins.push_back(fit->second);
          }
        }
        continue;
      }
      io_keys.push_back(Key(as, vpn));
      if (have_prev && vpn == prev_missing + 1 && current_run < config_.cluster_pages) {
        ++current_run;
      } else {
        if (current_run > 0) {
          runs.push_back(static_cast<int>(current_run));
        }
        current_run = 1;
      }
      prev_missing = vpn;
      have_prev = true;
    }
    if (current_run > 0) {
      runs.push_back(static_cast<int>(current_run));
    }
    if (runs.empty() && joins.empty()) {
      if (done) {
        uint64_t id = CreateOp(std::move(done));
        ops_.at(id).remaining = 1;
        ScheduleOpFire(id, Duration::Zero());
      }
      return;
    }
    uint64_t id = CreateOp(std::move(done));
    Op& op = ops_.at(id);
    op.remaining = joins.size() + (runs.empty() ? 0u : 1u);
    coalesced_waits_ += static_cast<int64_t>(joins.size());
    for (uint64_t j : joins) {
      ops_.at(j).waiter_ops.push_back(id);
    }
    if (runs.empty()) {
      return;
    }
    op.runs = std::move(runs);
    op.keys = std::move(io_keys);
    for (uint64_t key : op.keys) {
      in_flight_[key] = id;
    }
    StartChain(id, throttle);
  }

  void MarkSwappedOut(Space& as, uint64_t first, size_t count) {
    for (uint64_t vpn = first; vpn < first + count; ++vpn) {
      if (as.IsResident(vpn)) {
        uint32_t f = as.FrameOf(vpn);
        UnlinkFrame(f);
        FreeFrame(f);
        as.SetEvicted(vpn);
      } else {
        as.Ensure(vpn);
        as.pages[vpn] = kEvicted;
      }
    }
  }

  void Prefault(Space& as, uint64_t first, size_t count) {
    for (uint64_t vpn = first; vpn < first + count; ++vpn) {
      bool was_missing = !as.IsResident(vpn);
      MakeResident(as, vpn, /*write=*/false);
      if (was_missing) {
        --faults_;
      } else {
        --hits_;
      }
    }
  }

  size_t frames_used() const { return frames_used_; }
  int64_t faults() const { return faults_; }
  int64_t hits() const { return hits_; }
  int64_t evictions() const { return evictions_; }
  int64_t dirty_writebacks() const { return dirty_writebacks_; }
  int64_t protected_skips() const { return protected_skips_; }
  size_t shared_segments() const { return shared_.size(); }
  int64_t shared_attaches() const { return shared_attaches_; }
  int64_t coalesced_waits() const { return coalesced_waits_; }

 private:
  struct Frame {
    Space* as = nullptr;
    uint64_t vpn = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };
  struct Op {
    size_t remaining = 0;
    InlineCallback done;
    std::vector<int> runs;
    size_t next_run = 0;
    std::vector<uint64_t> keys;
    std::vector<uint64_t> waiter_ops;
  };

  static uint64_t Key(const Space& as, uint64_t vpn) { return (as.id << 44) | vpn; }

  bool TryHitOne(Space& as, uint64_t vpn, bool write) {
    if (!as.IsResident(vpn) ||
        (!in_flight_.empty() && in_flight_.count(Key(as, vpn)) != 0)) {
      return false;
    }
    MakeResident(as, vpn, write);
    return true;
  }

  bool MakeResident(Space& as, uint64_t vpn, bool write) {
    if (as.IsResident(vpn)) {
      ++hits_;
      TouchLru(as, vpn);
      if (write) {
        as.pages[vpn] |= 1u;
      }
      return false;
    }
    ++faults_;
    if (frames_used_ >= config_.total_frames) {
      EvictOneFrame(as);
    }
    uint32_t f = AllocFrame(as, vpn);
    as.Ensure(vpn);
    if (as.pages[vpn] < kFrameBase) {
      ++as.resident;
    }
    as.pages[vpn] = kFrameBase + (f << 1) + (write ? 1u : 0u);
    return true;
  }

  void TouchLru(Space& as, uint64_t vpn) {
    uint32_t f = as.FrameOf(vpn);
    if (f == lru_tail_) {
      return;
    }
    UnlinkFrame(f);
    LinkFrameAtTail(f);
  }

  void EvictOneFrame(const Space& for_whom) {
    uint32_t victim = lru_head_;
    if (config_.policy == EvictionPolicy::kInteractiveProtect && !for_whom.interactive) {
      uint32_t it = lru_head_;
      while (it != kNil && frames_[it].as->interactive) {
        ++protected_skips_;
        it = frames_[it].next;
      }
      if (it != kNil) {
        victim = it;
      }
    }
    Space& vas = *frames_[victim].as;
    uint64_t vvpn = frames_[victim].vpn;
    bool dirty = vas.IsDirty(vvpn);
    vas.SetEvicted(vvpn);
    UnlinkFrame(victim);
    FreeFrame(victim);
    ++evictions_;
    if (dirty) {
      ++dirty_writebacks_;
      disk_.Write(1);
    }
  }

  uint32_t AllocFrame(Space& as, uint64_t vpn) {
    uint32_t f;
    if (free_head_ != kNil) {
      f = free_head_;
      free_head_ = frames_[f].next;
    } else {
      f = static_cast<uint32_t>(frames_.size());
      frames_.push_back(Frame{});
    }
    frames_[f].as = &as;
    frames_[f].vpn = vpn;
    LinkFrameAtTail(f);
    ++frames_used_;
    return f;
  }

  void UnlinkFrame(uint32_t f) {
    Frame& fr = frames_[f];
    if (fr.prev != kNil) {
      frames_[fr.prev].next = fr.next;
    } else {
      lru_head_ = fr.next;
    }
    if (fr.next != kNil) {
      frames_[fr.next].prev = fr.prev;
    } else {
      lru_tail_ = fr.prev;
    }
  }

  void LinkFrameAtTail(uint32_t f) {
    Frame& fr = frames_[f];
    fr.prev = lru_tail_;
    fr.next = kNil;
    if (lru_tail_ != kNil) {
      frames_[lru_tail_].next = f;
    } else {
      lru_head_ = f;
    }
    lru_tail_ = f;
  }

  void FreeFrame(uint32_t f) {
    frames_[f].as = nullptr;
    frames_[f].next = free_head_;
    free_head_ = f;
    --frames_used_;
  }

  void DropFramesOf(Space& as) {
    for (uint32_t it = lru_head_; it != kNil;) {
      uint32_t next = frames_[it].next;
      if (frames_[it].as == &as) {
        UnlinkFrame(it);
        FreeFrame(it);
      }
      it = next;
    }
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if ((it->first >> 44) == as.id) {
        uint64_t owner = it->second;
        it = in_flight_.erase(it);
        auto oit = ops_.find(owner);
        if (oit != ops_.end()) {
          std::vector<uint64_t> waiters = std::move(oit->second.waiter_ops);
          oit->second.waiter_ops.clear();
          for (uint64_t w : waiters) {
            ScheduleOpFire(w, Duration::Zero());
          }
        }
      } else {
        ++it;
      }
    }
  }

  Duration ThrottleFor(const Space& as) const {
    if (config_.policy == EvictionPolicy::kInteractiveProtect && !as.interactive &&
        frames_used_ >= config_.total_frames) {
      return config_.throttle_delay;
    }
    return Duration::Zero();
  }

  uint64_t CreateOp(InlineCallback done) {
    uint64_t id = next_op_id_++;
    ops_[id].done = std::move(done);
    return id;
  }

  void OpSignal(uint64_t id) {
    if (--ops_.at(id).remaining == 0) {
      auto it = ops_.find(id);
      Op op = std::move(it->second);
      ops_.erase(it);
      if (op.done) {
        op.done();
      }
    }
  }

  void StartChain(uint64_t id, Duration throttle) {
    if (throttle.IsZero()) {
      IssueRead(id);
    } else {
      sim_.Schedule(throttle, [this, id] { IssueRead(id); });
    }
  }

  void IssueRead(uint64_t id) {
    Op& op = ops_.at(id);
    disk_.Read(op.runs[op.next_run], [this, id] { OnChainStep(id); });
  }

  void OnChainStep(uint64_t id) {
    Op& op = ops_.at(id);
    if (++op.next_run < op.runs.size()) {
      IssueRead(id);
      return;
    }
    for (uint64_t key : op.keys) {
      auto fit = in_flight_.find(key);
      if (fit != in_flight_.end() && fit->second == id) {
        in_flight_.erase(fit);
      }
    }
    std::vector<uint64_t> waiters = std::move(op.waiter_ops);
    op.waiter_ops.clear();
    for (uint64_t w : waiters) {
      OpSignal(w);
    }
    OpSignal(id);
  }

  void ScheduleOpFire(uint64_t id, Duration delay) {
    sim_.Schedule(delay, [this, id] { OpSignal(id); });
  }

  Simulator& sim_;
  Disk& disk_;
  PagerConfig config_;
  std::vector<std::unique_ptr<Space>> spaces_;
  std::vector<Frame> frames_;
  uint32_t lru_head_ = kNil;
  uint32_t lru_tail_ = kNil;
  uint32_t free_head_ = kNil;
  size_t frames_used_ = 0;
  std::map<uint64_t, uint64_t> in_flight_;
  std::map<uint64_t, Op> ops_;
  uint64_t next_op_id_ = 1;
  std::map<std::string, std::pair<Space*, int>> shared_;
  int64_t faults_ = 0;
  int64_t hits_ = 0;
  int64_t evictions_ = 0;
  int64_t dirty_writebacks_ = 0;
  int64_t protected_skips_ = 0;
  int64_t shared_attaches_ = 0;
  int64_t coalesced_waits_ = 0;
  uint64_t next_id_ = 1;
};

enum class Kind {
  kAccess,
  kAccessRange,
  kPrefault,
  kSwapOut,
  kTryHit,
  kRunUntil,
  kAcquire,
  kReleaseShared,
  kCreate,
  kRelease,
};

// One script step. Spaces are named by slot: the order in which the script created them
// (private spaces, and each shared segment's space when an acquire creates it).
struct Step {
  Kind kind = Kind::kRunUntil;
  int slot = 0;
  uint64_t first = 0;
  size_t count = 1;
  bool write = false;
  bool with_done = true;
  bool interactive = false;  // kCreate, kAcquire
  int key = 0;               // kAcquire, kReleaseShared
  bool creates = false;      // kAcquire: the first acquire of the key's current segment
  bool destroys = false;     // kReleaseShared: the last release (slot = its space)
  Duration advance;          // kRunUntil
};

struct Script {
  PagerConfig pager;
  uint64_t disk_seed = 0;
  std::vector<bool> initial_interactive;  // the private spaces created up front
  std::vector<Step> steps;
};

Script DrawScript(uint64_t seed) {
  Rng rng(seed);
  Script s;
  int64_t frames = rng.NextInt(8, 200);
  s.pager.total_frames = static_cast<size_t>(frames);
  s.pager.cluster_pages = static_cast<size_t>(rng.NextInt(1, 4));
  s.pager.policy = rng.NextBool(0.5) ? EvictionPolicy::kGlobalLru
                                     : EvictionPolicy::kInteractiveProtect;
  const int64_t kThrottleUs[] = {0, 1000, 20000};
  s.pager.throttle_delay = Duration::Micros(kThrottleUs[rng.NextBelow(3)]);
  s.disk_seed = rng.NextU64();

  // The script's model of its slots: page span, and whether the space is still alive.
  struct Slot {
    size_t pages;
    bool live;
    int key;  // -1 for a private space
  };
  std::vector<Slot> slots;
  auto span = [&] {
    return static_cast<size_t>(rng.NextInt(1, std::max<int64_t>(2, frames * 3 / 2)));
  };
  int privates = static_cast<int>(rng.NextInt(2, 4));
  for (int i = 0; i < privates; ++i) {
    s.initial_interactive.push_back(rng.NextBool(0.5));
    slots.push_back(Slot{span(), true, -1});
  }
  const int kKeys = 2;
  size_t key_pages[kKeys] = {span(), span()};
  int key_refs[kKeys] = {0, 0};
  int key_slot[kKeys] = {-1, -1};

  int n = static_cast<int>(rng.NextInt(60, 160));
  for (int i = 0; i < n; ++i) {
    std::vector<int> live;
    for (size_t j = 0; j < slots.size(); ++j) {
      if (slots[j].live) {
        live.push_back(static_cast<int>(j));
      }
    }
    Step st;
    st.slot = live[rng.NextBelow(live.size())];
    size_t pages = slots[static_cast<size_t>(st.slot)].pages;
    st.first = rng.NextBelow(pages);
    st.count = static_cast<size_t>(
        rng.NextInt(1, std::min<int64_t>(48, static_cast<int64_t>(pages - st.first))));
    st.write = rng.NextBool(0.3);
    st.with_done = rng.NextBool(0.85);
    double r = rng.NextDouble();
    if (r < 0.18) {
      st.kind = Kind::kAccess;
    } else if (r < 0.40) {
      st.kind = Kind::kAccessRange;
    } else if (r < 0.50) {
      st.kind = Kind::kPrefault;
    } else if (r < 0.56) {
      st.kind = Kind::kSwapOut;
    } else if (r < 0.66) {
      st.kind = Kind::kTryHit;
    } else if (r < 0.84) {
      st.kind = Kind::kRunUntil;
      const int64_t kScaleUs[] = {500, 20000, 200000};
      st.advance = Duration::Micros(rng.NextInt(0, kScaleUs[rng.NextBelow(3)]));
    } else if (r < 0.96) {
      st.key = static_cast<int>(rng.NextBelow(kKeys));
      if (key_refs[st.key] > 0 && rng.NextBool(0.4)) {
        st.kind = Kind::kReleaseShared;
        st.slot = key_slot[st.key];
        st.destroys = --key_refs[st.key] == 0;
        slots[static_cast<size_t>(st.slot)].live = !st.destroys;
      } else {
        st.kind = Kind::kAcquire;
        st.interactive = rng.NextBool(0.5);
        st.creates = key_refs[st.key]++ == 0;
        if (st.creates) {
          key_slot[st.key] = static_cast<int>(slots.size());
          slots.push_back(Slot{key_pages[st.key], true, st.key});
        }
      }
    } else {
      int private_live = 0;
      for (int j : live) {
        private_live += slots[static_cast<size_t>(j)].key < 0 ? 1 : 0;
      }
      if (slots[static_cast<size_t>(st.slot)].key < 0 && private_live > 1 &&
          rng.NextBool(0.5)) {
        st.kind = Kind::kRelease;
        slots[static_cast<size_t>(st.slot)].live = false;
      } else {
        st.kind = Kind::kCreate;
        st.interactive = rng.NextBool(0.5);
        slots.push_back(Slot{span(), true, -1});
      }
    }
    s.steps.push_back(st);
  }
  return s;
}

// Everything a caller can read back between steps.
struct Observed {
  int64_t now_us = 0;
  size_t pending_events = 0;
  int64_t disk_reads = 0, disk_writes = 0, disk_pages_read = 0, disk_pages_written = 0;
  int64_t disk_busy_until_us = 0, disk_total_busy_us = 0;
  int64_t faults = 0, hits = 0, evictions = 0, dirty_writebacks = 0;
  int64_t protected_skips = 0, shared_attaches = 0, coalesced_waits = 0;
  size_t frames_used = 0, shared_segments = 0;
  size_t tryhit = 0;  // the last TryHit's hit count
  std::vector<std::vector<uint32_t>> pages;  // per slot; empty once released
  std::vector<size_t> resident;
  std::vector<std::pair<int, int64_t>> log;  // (step, completion time in us)

  bool operator==(const Observed&) const = default;

  std::string Summary() const {
    return "now=" + std::to_string(now_us) +
           "us pending=" + std::to_string(pending_events) +
           " reads=" + std::to_string(disk_reads) +
           " writes=" + std::to_string(disk_writes) +
           " busy_until=" + std::to_string(disk_busy_until_us) +
           "us faults=" + std::to_string(faults) + " hits=" + std::to_string(hits) +
           " evictions=" + std::to_string(evictions) +
           " writebacks=" + std::to_string(dirty_writebacks) +
           " skips=" + std::to_string(protected_skips) +
           " attaches=" + std::to_string(shared_attaches) +
           " coalesced=" + std::to_string(coalesced_waits) +
           " frames_used=" + std::to_string(frames_used) +
           " tryhit=" + std::to_string(tryhit) +
           " completions=" + std::to_string(log.size());
  }

  // The slots whose page entries or resident counts differ.
  std::string SlotsDiffering(const Observed& o) const {
    std::string out;
    for (size_t i = 0; i < std::max(pages.size(), o.pages.size()); ++i) {
      if (i >= pages.size() || i >= o.pages.size() || pages[i] != o.pages[i] ||
          resident[i] != o.resident[i]) {
        out += " slot" + std::to_string(i);
      }
    }
    return out;
  }
};

template <typename P>
class World {
 public:
  using Space = std::remove_pointer_t<decltype(std::declval<P&>().CreateAddressSpace(
      std::string(), false))>;

  explicit World(const Script& s)
      : disk_(sim_, Rng(s.disk_seed)), pager_(sim_, disk_, s.pager) {
    for (bool interactive : s.initial_interactive) {
      slots_.push_back(pager_.CreateAddressSpace("private", interactive));
    }
  }

  // Applies step `i`; returns false if the pager disagrees with the script about
  // whether an acquire created its segment.
  bool Apply(const Step& st, int i) {
    Space* as = st.slot < static_cast<int>(slots_.size())
                    ? slots_[static_cast<size_t>(st.slot)]
                    : nullptr;
    InlineCallback done = nullptr;
    if (st.with_done) {
      done = [this, i] { log_.emplace_back(i, sim_.Now().ToMicros()); };
    }
    switch (st.kind) {
      case Kind::kAccess:
        pager_.Access(*as, st.first, st.write, std::move(done));
        break;
      case Kind::kAccessRange:
        pager_.AccessRange(*as, st.first, st.count, st.write, std::move(done));
        break;
      case Kind::kPrefault:
        pager_.Prefault(*as, st.first, st.count);
        break;
      case Kind::kSwapOut:
        pager_.MarkSwappedOut(*as, st.first, st.count);
        break;
      case Kind::kTryHit:
        tryhit_ = pager_.TryHit(*as, st.first, st.count, st.write);
        break;
      case Kind::kRunUntil:
        sim_.RunUntil(sim_.Now() + st.advance);
        break;
      case Kind::kAcquire: {
        auto seg = pager_.AcquireShared("text:" + std::to_string(st.key), st.interactive);
        if (seg.created != st.creates) {
          return false;
        }
        if (seg.created) {
          slots_.push_back(seg.space);
        }
        break;
      }
      case Kind::kReleaseShared:
        pager_.ReleaseShared("text:" + std::to_string(st.key));
        if (st.destroys) {
          slots_[static_cast<size_t>(st.slot)] = nullptr;
        }
        break;
      case Kind::kCreate:
        slots_.push_back(pager_.CreateAddressSpace("private", st.interactive));
        break;
      case Kind::kRelease:
        pager_.ReleaseAddressSpace(as);
        slots_[static_cast<size_t>(st.slot)] = nullptr;
        break;
    }
    return true;
  }

  Observed Observe() const {
    Observed o;
    o.now_us = sim_.Now().ToMicros();
    o.pending_events = sim_.pending_events();
    o.disk_reads = disk_.reads();
    o.disk_writes = disk_.writes();
    o.disk_pages_read = disk_.pages_read();
    o.disk_pages_written = disk_.pages_written();
    o.disk_busy_until_us = disk_.busy_until().ToMicros();
    o.disk_total_busy_us = disk_.total_busy().ToMicros();
    o.faults = pager_.faults();
    o.hits = pager_.hits();
    o.evictions = pager_.evictions();
    o.dirty_writebacks = pager_.dirty_writebacks();
    o.protected_skips = pager_.protected_skips();
    o.shared_attaches = pager_.shared_attaches();
    o.coalesced_waits = pager_.coalesced_waits();
    o.frames_used = pager_.frames_used();
    o.shared_segments = pager_.shared_segments();
    o.tryhit = tryhit_;
    for (const Space* as : slots_) {
      o.pages.push_back(as != nullptr ? as->page_entries() : std::vector<uint32_t>());
      o.resident.push_back(as != nullptr ? as->resident_pages() : 0);
    }
    o.log = log_;
    return o;
  }

  // Drains the simulator, then faults a fresh interactive space across the whole pool
  // one page at a time. The first faults take the free frames; after that each evicts
  // the LRU frame, whose slot the new page takes. Returns the (slot, vpn) of every
  // page evicted, in order.
  std::vector<std::pair<int, uint64_t>> FlushInLruOrder(size_t total_frames) {
    sim_.Run();
    std::vector<std::pair<int, uint64_t>> holder(total_frames, {-1, 0});
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s] == nullptr) {
        continue;
      }
      const std::vector<uint32_t>& entries = slots_[s]->page_entries();
      for (uint64_t vpn = 0; vpn < entries.size(); ++vpn) {
        if (entries[vpn] >= 2) {
          holder[(entries[vpn] - 2) >> 1] = {static_cast<int>(s), vpn};
        }
      }
    }
    Space* probe = pager_.CreateAddressSpace("probe", /*interactive=*/true);
    std::vector<std::pair<int, uint64_t>> evicted;
    for (uint64_t vpn = 0; vpn < total_frames; ++vpn) {
      int64_t before = pager_.evictions();
      pager_.Access(*probe, vpn, /*write=*/false, nullptr);
      uint32_t frame = (probe->page_entries()[vpn] - 2) >> 1;
      if (pager_.evictions() > before) {
        evicted.push_back(holder[frame]);
      }
      holder[frame] = {-1, vpn};
    }
    return evicted;
  }

 private:
  Simulator sim_;
  Disk disk_;
  P pager_;
  std::vector<Space*> slots_;
  std::vector<std::pair<int, int64_t>> log_;
  size_t tryhit_ = 0;
};

// What the scripts exercised, summed over seeds (from the run-hit world).
struct Coverage {
  int joins = 0;              // steps whose access joined an in-flight page-in
  int prefault_evictions = 0;  // Prefault steps on a full pool
  int partial_tryhits = 0;    // TryHit steps that stopped short of their count
  int protected_skips = 0;    // steps that skipped protected frames
  int releases_in_flight = 0;  // releases while a page-in was on the disk
  int flushed_frames = 0;     // evictions recorded by the final flushes
};

// Runs one seed; returns a description of the first mismatch, or "" if none.
std::string RunSeed(uint64_t seed, Coverage& cov) {
  Script s = DrawScript(seed);
  World<Pager> runs(s);
  World<PerPagePager> per_page(s);
  for (size_t i = 0; i < s.steps.size(); ++i) {
    const Step& st = s.steps[i];
    Observed before = runs.Observe();
    int index = static_cast<int>(i);
    if (!runs.Apply(st, index) || !per_page.Apply(st, index)) {
      return "seed " + std::to_string(seed) + " step " + std::to_string(i) +
             ": acquire disagrees with the script";
    }
    Observed got = runs.Observe();
    Observed want = per_page.Observe();
    if (got != want) {
      return "seed " + std::to_string(seed) + " step " + std::to_string(i) + " (kind " +
             std::to_string(static_cast<int>(st.kind)) + ") differs:" +
             got.SlotsDiffering(want) + (got.log != want.log ? " completion-log" : "") +
             "\n  runs:     " + got.Summary() + "\n  per-page: " + want.Summary();
    }
    cov.joins += got.coalesced_waits > before.coalesced_waits ? 1 : 0;
    cov.prefault_evictions +=
        st.kind == Kind::kPrefault && got.evictions > before.evictions ? 1 : 0;
    cov.partial_tryhits += st.kind == Kind::kTryHit && got.tryhit < st.count ? 1 : 0;
    cov.protected_skips += got.protected_skips > before.protected_skips ? 1 : 0;
    bool releases = st.kind == Kind::kRelease || st.destroys;
    bool disk_busy = before.disk_busy_until_us > before.now_us;
    cov.releases_in_flight += releases && disk_busy ? 1 : 0;
  }
  std::vector<std::pair<int, uint64_t>> got = runs.FlushInLruOrder(s.pager.total_frames);
  std::vector<std::pair<int, uint64_t>> want =
      per_page.FlushInLruOrder(s.pager.total_frames);
  if (got != want) {
    size_t k = 0;
    while (k < got.size() && k < want.size() && got[k] == want[k]) {
      ++k;
    }
    return "seed " + std::to_string(seed) + ": LRU order differs at eviction " +
           std::to_string(k) + " of " + std::to_string(want.size());
  }
  if (runs.Observe() != per_page.Observe()) {
    return "seed " + std::to_string(seed) + ": state differs after the flush";
  }
  cov.flushed_frames += static_cast<int>(got.size());
  return "";
}

TEST(PagerRangeTest, RunHitsMatchPerPagePagerAfterEveryStep) {
  constexpr uint64_t kSeeds = 320;
  Coverage cov;
  int mismatches = 0;
  std::string first;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::string diff = RunSeed(seed, cov);
    if (!diff.empty() && mismatches++ == 0) {
      first = diff;
    }
  }
  EXPECT_EQ(mismatches, 0) << mismatches << " of " << kSeeds
                           << " seeds mismatch; first:\n"
                           << first;
  // The scripts reach every path the run hits share with faults and joins.
  EXPECT_GT(cov.joins, 100);
  EXPECT_GT(cov.prefault_evictions, 100);
  EXPECT_GT(cov.partial_tryhits, 100);
  EXPECT_GT(cov.protected_skips, 100);
  EXPECT_GT(cov.releases_in_flight, 20);
  EXPECT_GT(cov.flushed_frames, 10000);
}

// Hits on pages whose frames are not chained in vpn order: each page still moves to the
// MRU tail in vpn order. Pages 0..5 fault in the order 3 1 5 0 2 4, so a hit on the run
// 0..5 must leave the LRU order 0 1 2 3 4 5 for a flush to evict.
TEST(PagerRangeTest, RunOfScatteredFramesMovesToTailInVpnOrder) {
  Simulator sim;
  Disk disk(sim, Rng(1));
  PagerConfig cfg;
  cfg.total_frames = 6;
  Pager pager(sim, disk, cfg);
  AddressSpace* as = pager.CreateAddressSpace("a", true);
  for (uint64_t vpn : {3, 1, 5, 0, 2, 4}) {
    pager.Prefault(*as, vpn, 1);
  }
  EXPECT_EQ(pager.TryHit(*as, 0, 6, false), 6u);
  EXPECT_EQ(pager.hits(), 6);
  AddressSpace* probe = pager.CreateAddressSpace("probe", true);
  for (uint64_t vpn = 0; vpn < 6; ++vpn) {
    pager.Access(*probe, vpn, false, nullptr);
    EXPECT_TRUE(as->WasEvicted(vpn)) << vpn;
    if (vpn + 1 < 6) {
      EXPECT_TRUE(as->IsResident(vpn + 1)) << vpn;
    }
  }
}

}  // namespace
}  // namespace tcs
