#include "src/mem/pager.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcs {

Pager::Pager(Simulator& sim, Disk& disk, PagerConfig config)
    : sim_(sim), disk_(disk), config_(config), spaces_(1) {
  assert(config_.total_frames > 0);
  assert(config_.total_frames <= AddressSpace::kMaxFrames);
  assert(config_.cluster_pages >= 1);
  frames_.reserve(std::min(config_.total_frames, kReservedFramesCap));
}

void Pager::Attach(Emitter emit) {
  emit_ = emit;
  trace_track_ = emit_.Track("mem", "pager");
}

AddressSpace* Pager::CreateAddressSpace(bool interactive) {
  assert(spaces_.size() <= UINT32_MAX);
  spaces_.push_back(std::make_unique<AddressSpace>(spaces_.size(), interactive));
  return spaces_.back().get();
}

SharedSegment Pager::AcquireShared(const std::string& key, bool interactive) {
  auto it = shared_.find(key);
  if (it != shared_.end()) {
    ++shared_attaches_;
    return SharedSegment{it->second, /*created=*/false};
  }
  AddressSpace* space = CreateAddressSpace(interactive);
  shared_.emplace(key, space);
  return SharedSegment{space, /*created=*/true};
}

void Pager::UnlinkFrame(uint32_t f) {
  Frame& fr = frames_[f];
  if (fr.prev != kNilFrame) {
    frames_[fr.prev].next = fr.next;
  } else {
    lru_head_ = fr.next;
  }
  if (fr.next != kNilFrame) {
    frames_[fr.next].prev = fr.prev;
  } else {
    lru_tail_ = fr.prev;
  }
}

void Pager::SpliceToTail(uint32_t head, uint32_t tail) {
  if (tail == lru_tail_) {
    return;  // already most recently used
  }
  uint32_t before = frames_[head].prev;
  uint32_t after = frames_[tail].next;
  if (before != kNilFrame) {
    frames_[before].next = after;
  } else {
    lru_head_ = after;
  }
  frames_[after].prev = before;
  frames_[lru_tail_].next = head;
  frames_[head].prev = lru_tail_;
  frames_[tail].next = kNilFrame;
  lru_tail_ = tail;
}

void Pager::LinkFrameAtTail(uint32_t f) {
  Frame& fr = frames_[f];
  fr.prev = lru_tail_;
  fr.next = kNilFrame;
  if (lru_tail_ != kNilFrame) {
    frames_[lru_tail_].next = f;
  } else {
    lru_head_ = f;
  }
  lru_tail_ = f;
}

uint32_t Pager::TakeFrame() {
  if (free_head_ != kNilFrame) {
    uint32_t f = free_head_;
    free_head_ = frames_[f].next;
    return f;
  }
  frames_.push_back(Frame{});
  return static_cast<uint32_t>(frames_.size() - 1);
}

uint32_t Pager::AllocFrame(AddressSpace& as, uint64_t vpn) {
  uint32_t f = TakeFrame();
  assert(vpn <= UINT32_MAX);
  frames_[f].owner = static_cast<uint32_t>(as.id());
  frames_[f].vpn = static_cast<uint32_t>(vpn);
  LinkFrameAtTail(f);
  ++frames_used_;
  return f;
}

void Pager::FreeFrame(uint32_t f) {
  frames_[f].owner = 0;
  frames_[f].next = free_head_;
  free_head_ = f;
  --frames_used_;
}

uint64_t Pager::CreateOp(InlineCallback done) {
  uint64_t id = next_op_id_++;
  ops_[id].done = std::move(done);
  return id;
}

void Pager::OpSignal(uint64_t id) {
  auto it = ops_.find(id);
  assert(it != ops_.end());
  assert(it->second.remaining > 0);
  if (--it->second.remaining == 0) {
    CompleteOp(id);
  }
}

void Pager::CompleteOp(uint64_t id) {
  auto it = ops_.find(id);
  PagerOp op = std::move(it->second);
  ops_.erase(it);
  if (op.traced) {
    emit_.Span(TraceCategory::kMem, "page-in", trace_track_, op.access_start, sim_.Now(),
               {"pages", op.count}, {"io_pages", op.io_pages});
  }
  if (op.done) {
    op.done();
  }
}

void Pager::IssueRead(uint64_t id) {
  PagerOp& op = ops_.at(id);
  assert(op.next_run < op.runs.size());
  disk_.Read(op.runs[op.next_run], [this, id] { OnChainStep(id); });
}

void Pager::OnChainStep(uint64_t id) {
  auto it = ops_.find(id);
  assert(it != ops_.end());
  PagerOp& op = it->second;
  ++op.next_run;
  if (op.next_run < op.runs.size()) {
    IssueRead(id);
  } else {
    ChainComplete(id);
  }
}

void Pager::ChainComplete(uint64_t id) {
  auto it = ops_.find(id);
  assert(it != ops_.end());
  PagerOp& op = it->second;
  // Release the barrier. A page evicted while this read was on the disk and then faulted
  // again belongs to the newer fault's read, which may already have landed and erased it.
  for (uint64_t key : op.keys) {
    auto fit = in_flight_.find(key);
    if (fit != in_flight_.end() && fit->second == id) {
      in_flight_.erase(fit);
    }
  }
  // Waiting ops are other accesses' completions; they resume at this same instant,
  // after the issuing access's own bookkeeping.
  std::vector<uint64_t> waiters = std::move(op.waiter_ops);
  op.waiter_ops.clear();
  for (uint64_t w : waiters) {
    OpSignal(w);
  }
  OpSignal(id);
}

void Pager::ScheduleOpFire(uint64_t id, Duration delay) {
  sim_.Schedule(delay, [this, id] { OpSignal(id); });
}

void Pager::ScheduleIssue(uint64_t id, Duration delay) {
  sim_.Schedule(delay, [this, id] { IssueRead(id); });
}

// Moving pages p1..pk to the MRU tail one at a time leaves the other frames in their
// order followed by p1..pk. A stretch of the run whose frames already follow each other
// in the list is a chain of the list, so splicing the stretches to the tail in vpn order
// leaves the same list: each splice keeps the other frames' order and appends its pages
// in order. The stretch test reads the list as the earlier splices left it. A run that
// starts inside the space's recorded chain takes the chain's part of it as its first
// stretch without walking it; the run then leaves [first, end) as one chain.
void Pager::HitRun(AddressSpace& as, uint64_t first, uint64_t end, bool write) {
  assert(first < end);
  hits_ += static_cast<int64_t>(end - first);
  if (write) {
    for (uint64_t vpn = first; vpn < end; ++vpn) {
      as.MarkDirty(vpn);
    }
  }
  uint32_t head = as.FrameOf(first);
  uint32_t tail = head;
  uint64_t vpn = first + 1;
  if (as.InChain(first)) {
    vpn = std::min(end, as.chain_end_);
    tail = as.FrameOf(vpn - 1);
    assert(as.IsResident(first) && frames_[head].owner == as.id() &&
           frames_[head].vpn == first);
    assert(as.IsResident(vpn - 1) && frames_[tail].owner == as.id() &&
           frames_[tail].vpn == vpn - 1);
  }
  for (; vpn < end; ++vpn) {
    uint32_t f = as.FrameOf(vpn);
    if (frames_[tail].next != f) {
      SpliceToTail(head, tail);
      head = f;
    }
    tail = f;
  }
  SpliceToTail(head, tail);
  as.RecordChain(first, end);
}

void Pager::EvictOneFrame(const AddressSpace& for_whom) {
  assert(lru_head_ != kNilFrame);
  uint32_t victim = lru_head_;
  if (config_.policy == EvictionPolicy::kInteractiveProtect && !for_whom.interactive()) {
    // Skip pages belonging to interactive address spaces; steal the oldest
    // non-interactive page instead. Fall back to true LRU only if every resident page is
    // protected.
    uint32_t it = lru_head_;
    while (it != kNilFrame && OwnerOf(it).interactive()) {
      ++protected_skips_;
      it = frames_[it].next;
    }
    if (it != kNilFrame) {
      victim = it;
    }
  }
  AddressSpace& vas = OwnerOf(victim);
  uint64_t vvpn = frames_[victim].vpn;
  bool dirty = vas.IsDirty(vvpn);
  vas.SetEvicted(vvpn);
  UnlinkFrame(victim);
  FreeFrame(victim);
  ++evictions_;
  emit_.Trace().Instant(TraceCategory::kMem, dirty ? "evict-dirty" : "evict",
                        trace_track_, sim_.Now(), {"as", static_cast<int64_t>(vas.id())},
                        {"vpn", static_cast<int64_t>(vvpn)});
  if (dirty) {
    ++dirty_writebacks_;
    disk_.Write(1);  // fire-and-forget, but it occupies the disk queue ahead of reads
  }
}

bool Pager::MakeResident(AddressSpace& as, uint64_t vpn, bool write) {
  if (as.IsResident(vpn)) {
    HitRun(as, vpn, vpn + 1, write);
    return false;
  }
  ++faults_;
  emit_.Trace().Instant(TraceCategory::kMem, "fault", trace_track_, sim_.Now(),
                        {"as", static_cast<int64_t>(as.id())},
                        {"vpn", static_cast<int64_t>(vpn)});
  if (frames_used_ >= config_.total_frames) {
    EvictOneFrame(as);
  }
  uint32_t frame = AllocFrame(as, vpn);
  as.SetResidentInFrame(vpn, frame, write);
  return true;
}

Duration Pager::ThrottleFor(const AddressSpace& as) const {
  if (config_.policy == EvictionPolicy::kInteractiveProtect && !as.interactive() &&
      IsSaturated()) {
    return config_.throttle_delay;
  }
  return Duration::Zero();
}

void Pager::Access(AddressSpace& as, uint64_t vpn, bool write, InlineCallback done) {
  Duration throttle = ThrottleFor(as);
  bool needs_disk = as.WasEvicted(vpn);
  bool faulted = MakeResident(as, vpn, write);
  if (faulted) {
    // Flight records are batched per access, not per page: the Tracer keeps the
    // per-fault instants, the always-on ring carries one "faults" record per faulting
    // access (count + address space) so steady-state fault storms don't dominate it.
    emit_.Ring().Instant(TraceCategory::kMem, "faults", trace_track_, sim_.Now(),
                         {"pages", 1}, {"as", static_cast<int64_t>(as.id())});
  }
  if (!faulted) {
    // Hit — but if the page's read is still on the disk (another session faulted it
    // first), the data hasn't arrived: join that read's op instead of proceeding.
    if (!in_flight_.empty()) {
      auto fit = in_flight_.find(FramesKey::Of(as, vpn));
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
  }
  if (!faulted || !needs_disk) {
    // Hit, or zero-fill of a never-touched page: no I/O (the throttle still applies to
    // zero-fill faults — it slows any allocation by a non-interactive process).
    Duration delay = faulted ? throttle : Duration::Zero();
    if (done) {
      uint64_t id = CreateOp(std::move(done));
      ops_.at(id).remaining = 1;
      ScheduleOpFire(id, delay);
    }
    return;
  }
  uint64_t id = CreateOp(std::move(done));
  PagerOp& op = ops_.at(id);
  op.remaining = 1;
  op.runs.assign(1, 1);
  op.keys.assign(1, FramesKey::Of(as, vpn));
  in_flight_[op.keys[0]] = id;
  if (throttle.IsZero()) {
    IssueRead(id);
  } else {
    // Throttled faulter: delay the I/O issue itself, slowing the process's fault rate.
    ScheduleIssue(id, throttle);
  }
}

size_t Pager::TryHit(AddressSpace& as, uint64_t first, size_t count, bool write) {
  uint64_t end = as.ResidentRunEnd(first, first + count);
  if (!in_flight_.empty()) {
    uint64_t vpn = first;
    while (vpn < end && in_flight_.count(FramesKey::Of(as, vpn)) == 0) {
      ++vpn;
    }
    end = vpn;
  }
  if (end > first) {
    HitRun(as, first, end, write);
  }
  return end - first;
}

void Pager::AccessRange(AddressSpace& as, uint64_t first, size_t count, bool write,
                        InlineCallback done) {
  assert(count > 0);
  TimePoint access_start = sim_.Now();
  Duration throttle = ThrottleFor(as);
  // Bookkeeping first: compute contiguous runs of missing pages, make everything resident,
  // then simulate the I/O chain for the runs. Resident pages whose page-in is still on
  // the disk (another session's fault) contribute a join on that read's op.
  //
  // The steady-state keystroke path is all hits: `runs`/`io_keys` stay empty and the
  // whole call is one HitRun. Faults are taken in place, in vpn order, so an eviction
  // sees the list that touching the pages in order leaves; the next run of hits is
  // found after it, since it may have evicted a page of this range.
  std::vector<int> runs;
  std::vector<uint64_t> io_keys;
  std::vector<uint64_t> joins;
  size_t current_run = 0;
  uint64_t prev_missing = 0;
  bool have_prev = false;
  int64_t faulted_pages = 0;
  const uint64_t end = first + count;
  for (uint64_t vpn = first; vpn < end; ++vpn) {
    uint64_t run_end = as.ResidentRunEnd(vpn, end);
    if (run_end > vpn) {
      HitRun(as, vpn, run_end, write);
      for (uint64_t hit = vpn; !in_flight_.empty() && hit < run_end; ++hit) {
        auto fit = in_flight_.find(FramesKey::Of(as, hit));
        if (fit != in_flight_.end() &&
            std::find(joins.begin(), joins.end(), fit->second) == joins.end()) {
          joins.push_back(fit->second);
        }
      }
      if (run_end == end) {
        break;
      }
      vpn = run_end;  // not resident: faulted below
    }
    bool needs_disk = as.WasEvicted(vpn);
    MakeResident(as, vpn, write);
    ++faulted_pages;
    if (!needs_disk) {
      continue;  // zero-fill: no I/O of our own
    }
    io_keys.push_back(FramesKey::Of(as, vpn));
    bool adjacent = have_prev && vpn == prev_missing + 1;
    if (adjacent && current_run < config_.cluster_pages) {
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
  if (faulted_pages > 0) {
    // One batched flight record per faulting access (see Access above).
    emit_.Ring().Instant(TraceCategory::kMem, "faults", trace_track_, sim_.Now(),
                         {"pages", faulted_pages}, {"as", static_cast<int64_t>(as.id())});
  }
  if (runs.empty() && joins.empty()) {
    emit_.Trace().Span(TraceCategory::kMem, "access", trace_track_, access_start,
                       access_start, {"pages", static_cast<int64_t>(count)},
                       {"io_pages", 0});
    if (done) {
      uint64_t id = CreateOp(std::move(done));
      ops_.at(id).remaining = 1;
      ScheduleOpFire(id, Duration::Zero());
    }
    return;
  }
  // The access completes when its own read chain AND every joined in-flight read land.
  uint64_t id = CreateOp(std::move(done));
  PagerOp& op = ops_.at(id);
  op.remaining = joins.size() + (runs.empty() ? 0u : 1u);
  if (emit_.on()) {
    // The page-in span closes at the moment the last clustered read lands.
    op.traced = true;
    op.access_start = access_start;
    op.count = static_cast<int64_t>(count);
    for (int r : runs) {
      op.io_pages += r;
    }
  }
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
  if (throttle.IsZero()) {
    IssueRead(id);
  } else {
    ScheduleIssue(id, throttle);
  }
}

void Pager::MarkSwappedOut(AddressSpace& as, uint64_t first, size_t count) {
  for (uint64_t vpn = first; vpn < first + count; ++vpn) {
    if (as.IsResident(vpn)) {
      uint32_t f = as.FrameOf(vpn);
      UnlinkFrame(f);
      FreeFrame(f);
      as.SetEvicted(vpn);
    } else {
      // Create the page in the evicted state.
      as.MarkEvictedUntouched(vpn);
    }
  }
}

void Pager::Prefault(AddressSpace& as, uint64_t first, size_t count) {
  if (count == 0) {
    return;
  }
  // Prefault is setup, not simulation: the touches' hits and faults are not counted.
  int64_t hits = hits_;
  int64_t faults = faults_;
  const uint64_t end = first + count;
  as.EnsurePage(end - 1);
  for (uint64_t vpn = first; vpn < end;) {
    uint64_t run_end = as.ResidentRunEnd(vpn, end);
    if (run_end > vpn) {
      HitRun(as, vpn, run_end, /*write=*/false);
      vpn = run_end;
    } else if (frames_free() > 0) {
      vpn = FaultIntoFreeFrames(as, vpn, end);
    } else {
      MakeResident(as, vpn, /*write=*/false);
      ++vpn;
    }
  }
  hits_ = hits;
  faults_ = faults;
}

// While a frame is free, MakeResident evicts nothing: each fault takes the next frame in
// AllocFrame's order (free list first, then a new slab slot) and links it at the MRU
// tail. Doing that for the whole run leaves the same list, frame slots and page entries,
// and emits the same fault instants in the same order, with the counters added once.
uint64_t Pager::FaultIntoFreeFrames(AddressSpace& as, uint64_t first, uint64_t end) {
  const uint64_t stop = std::min<uint64_t>(end, first + frames_free());
  const auto owner = static_cast<uint32_t>(as.id());
  uint64_t vpn = first;
  for (; vpn < stop && !as.IsResident(vpn); ++vpn) {
    emit_.Trace().Instant(TraceCategory::kMem, "fault", trace_track_, sim_.Now(),
                          {"as", static_cast<int64_t>(owner)},
                          {"vpn", static_cast<int64_t>(vpn)});
    uint32_t f = TakeFrame();
    assert(vpn <= UINT32_MAX);
    frames_[f].owner = owner;
    frames_[f].vpn = static_cast<uint32_t>(vpn);
    LinkFrameAtTail(f);
    as.pages_[vpn] = AddressSpace::ResidentEntry(f, /*dirty=*/false);
  }
  frames_used_ += vpn - first;
  as.resident_count_ += vpn - first;
  return vpn;
}

}  // namespace tcs
