#include "src/mem/pager.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/sim/resume_kinds.h"

namespace tcs {

Pager::Pager(Simulator& sim, Disk& disk, PagerConfig config)
    : sim_(sim), disk_(disk), config_(config) {
  assert(config_.total_frames > 0);
  assert(config_.cluster_pages >= 1);
}

void Pager::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    trace_track_ = tracer_->RegisterTrack("mem", "pager");
  }
}

AddressSpace* Pager::CreateAddressSpace(std::string name, bool interactive) {
  spaces_.push_back(
      std::make_unique<AddressSpace>(next_as_id_++, std::move(name), interactive));
  return spaces_.back().get();
}

SharedSegment Pager::AcquireShared(const std::string& key, bool interactive) {
  auto it = shared_.find(key);
  if (it != shared_.end()) {
    ++it->second.refs;
    ++shared_attaches_;
    return SharedSegment{it->second.space, /*created=*/false};
  }
  AddressSpace* space = CreateAddressSpace(key, interactive);
  shared_.emplace(key, SharedEntry{space, 1});
  return SharedSegment{space, /*created=*/true};
}

void Pager::ReleaseShared(const std::string& key) {
  auto it = shared_.find(key);
  assert(it != shared_.end() && "ReleaseShared without matching acquire");
  if (--it->second.refs == 0) {
    AddressSpace* space = it->second.space;
    shared_.erase(it);
    ReleaseAddressSpace(space);
  }
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

uint32_t Pager::AllocFrame(AddressSpace& as, uint64_t vpn) {
  uint32_t f;
  if (free_head_ != kNilFrame) {
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

void Pager::FreeFrame(uint32_t f) {
  frames_[f].as = nullptr;
  frames_[f].next = free_head_;
  free_head_ = f;
  --frames_used_;
}

void Pager::DropFramesOf(AddressSpace& as) {
  for (uint32_t it = lru_head_; it != kNilFrame;) {
    uint32_t next = frames_[it].next;
    if (frames_[it].as == &as) {
      UnlinkFrame(it);
      FreeFrame(it);
    }
    it = next;
  }
  // Page-ins of a dying space still on the disk: their map entries go away and any
  // waiting ops resume now (the disk completion itself is harmless — the owning op's
  // chain keeps running and its in-flight erase is guarded).
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if ((it->first >> 44) == as.id()) {
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

void Pager::ReleaseAddressSpace(AddressSpace* as) {
  assert(as != nullptr);
  DropFramesOf(*as);
  for (auto it = spaces_.begin(); it != spaces_.end(); ++it) {
    if (it->get() == as) {
      spaces_.erase(it);
      return;
    }
  }
  assert(false && "address space not owned by this pager");
}

uint64_t Pager::CreateOp(InlineCallback done, ResumeKey done_key) {
  uint64_t id = next_op_id_++;
  PagerOp& op = ops_[id];
  op.done = std::move(done);
  op.done_key = done_key;
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
    if (tracer_ != nullptr) {
      tracer_->Span(TraceCategory::kMem, "page-in", trace_track_, op.access_start,
                    sim_.Now(), "pages", op.count, "io_pages", op.io_pages);
    }
    if (recorder_ != nullptr) {
      recorder_->Span(TraceCategory::kMem, "page-in", op.access_start, sim_.Now(), 0,
                      op.count, op.io_pages);
    }
  }
  if (op.done) {
    op.done();
  }
}

void Pager::IssueRead(uint64_t id) {
  PagerOp& op = ops_.at(id);
  assert(op.next_run < op.runs.size());
  disk_.Read(op.runs[op.next_run], [this, id] { OnChainStep(id); },
             ResumeKey::Make(kResumePagerChain, id));
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
  // Release the barrier (guarded: a dying address space may have dropped the entries).
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
  fires_.push_back(PendingOpEvent{EventId(), id});
  fires_.back().ev = sim_.Schedule(delay, [this, id] { OnOpFire(id); });
}

void Pager::OnOpFire(uint64_t id) {
  for (auto it = fires_.begin(); it != fires_.end(); ++it) {
    if (it->op == id) {
      fires_.erase(it);
      break;
    }
  }
  OpSignal(id);
}

void Pager::ScheduleIssue(uint64_t id, Duration delay) {
  issues_.push_back(PendingOpEvent{EventId(), id});
  issues_.back().ev = sim_.Schedule(delay, [this, id] { OnIssueFire(id); });
}

void Pager::OnIssueFire(uint64_t id) {
  for (auto it = issues_.begin(); it != issues_.end(); ++it) {
    if (it->op == id) {
      issues_.erase(it);
      break;
    }
  }
  PagerOp& op = ops_.at(id);
  op.throttled = false;
  IssueRead(id);
}

void Pager::TouchLru(AddressSpace& as, uint64_t vpn) {
  uint32_t f = as.FrameOf(vpn);
  if (f == lru_tail_) {
    return;  // already most recently used
  }
  UnlinkFrame(f);
  LinkFrameAtTail(f);
}

void Pager::EvictOneFrame(const AddressSpace& for_whom) {
  assert(lru_head_ != kNilFrame);
  uint32_t victim = lru_head_;
  if (config_.policy == EvictionPolicy::kInteractiveProtect && !for_whom.interactive()) {
    // Skip pages belonging to interactive address spaces; steal the oldest
    // non-interactive page instead. Fall back to true LRU only if every resident page is
    // protected.
    uint32_t it = lru_head_;
    while (it != kNilFrame && frames_[it].as->interactive()) {
      ++protected_skips_;
      it = frames_[it].next;
    }
    if (it != kNilFrame) {
      victim = it;
    }
  }
  AddressSpace& vas = *frames_[victim].as;
  uint64_t vvpn = frames_[victim].vpn;
  bool dirty = vas.IsDirty(vvpn);
  vas.SetEvicted(vvpn);
  UnlinkFrame(victim);
  FreeFrame(victim);
  ++evictions_;
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceCategory::kMem, dirty ? "evict-dirty" : "evict", trace_track_,
                     sim_.Now(), "as", static_cast<int64_t>(vas.id()), "vpn",
                     static_cast<int64_t>(vvpn));
  }
  if (dirty) {
    ++dirty_writebacks_;
    disk_.Write(1);  // fire-and-forget, but it occupies the disk queue ahead of reads
  }
}

bool Pager::MakeResident(AddressSpace& as, uint64_t vpn, bool write) {
  if (as.IsResident(vpn)) {
    ++hits_;
    TouchLru(as, vpn);
    if (write) {
      as.MarkDirty(vpn);
    }
    return false;
  }
  ++faults_;
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceCategory::kMem, "fault", trace_track_, sim_.Now(), "as",
                     static_cast<int64_t>(as.id()), "vpn", static_cast<int64_t>(vpn));
  }
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

void Pager::Access(AddressSpace& as, uint64_t vpn, bool write, InlineCallback done,
                   ResumeKey done_key) {
  Duration throttle = ThrottleFor(as);
  bool needs_disk = as.WasEvicted(vpn);
  bool faulted = MakeResident(as, vpn, write);
  if (faulted && recorder_ != nullptr) {
    // Flight records are batched per access, not per page: the Tracer keeps the
    // per-fault instants, the always-on ring carries one "faults" record per faulting
    // access (count + address space) so steady-state fault storms don't dominate it.
    recorder_->Instant(TraceCategory::kMem, "faults", sim_.Now(), 0, 1,
                       static_cast<int64_t>(as.id()));
  }
  if (!faulted) {
    // Hit — but if the page's read is still on the disk (another session faulted it
    // first), the data hasn't arrived: join that read's op instead of proceeding.
    if (!in_flight_.empty()) {
      auto fit = in_flight_.find(FramesKey::Of(as, vpn));
      if (fit != in_flight_.end()) {
        ++coalesced_waits_;
        if (done) {
          uint64_t id = CreateOp(std::move(done), done_key);
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
      uint64_t id = CreateOp(std::move(done), done_key);
      ops_.at(id).remaining = 1;
      ScheduleOpFire(id, delay);
    }
    return;
  }
  uint64_t id = CreateOp(std::move(done), done_key);
  PagerOp& op = ops_.at(id);
  op.remaining = 1;
  op.runs.assign(1, 1);
  op.keys.assign(1, FramesKey::Of(as, vpn));
  in_flight_[op.keys[0]] = id;
  if (throttle.IsZero()) {
    IssueRead(id);
  } else {
    // Throttled faulter: delay the I/O issue itself, slowing the process's fault rate.
    op.throttled = true;
    ScheduleIssue(id, throttle);
  }
}

bool Pager::TryHit(AddressSpace& as, uint64_t vpn, bool write) {
  if (!as.IsResident(vpn) ||
      (!in_flight_.empty() && in_flight_.count(FramesKey::Of(as, vpn)) != 0)) {
    return false;
  }
  MakeResident(as, vpn, write);
  return true;
}

void Pager::AccessRange(AddressSpace& as, uint64_t first, size_t count, bool write,
                        InlineCallback done, ResumeKey done_key) {
  assert(count > 0);
  TimePoint access_start = sim_.Now();
  Duration throttle = ThrottleFor(as);
  // Bookkeeping first: compute contiguous runs of missing pages, make everything resident,
  // then simulate the I/O chain for the runs. Resident pages whose page-in is still on
  // the disk (another session's fault) contribute a join on that read's op.
  //
  // The steady-state keystroke path is all hits: `runs`/`io_keys` stay empty and the
  // whole call touches nothing but the page array and the recency list.
  std::vector<int> runs;
  std::vector<uint64_t> io_keys;
  std::vector<uint64_t> joins;
  size_t current_run = 0;
  uint64_t prev_missing = 0;
  bool have_prev = false;
  int64_t faulted_pages = 0;
  for (uint64_t vpn = first; vpn < first + count; ++vpn) {
    bool needs_disk = as.WasEvicted(vpn);
    bool faulted = MakeResident(as, vpn, write);
    faulted_pages += faulted ? 1 : 0;
    if (!needs_disk) {
      if (!faulted && !in_flight_.empty()) {
        auto fit = in_flight_.find(FramesKey::Of(as, vpn));
        if (fit != in_flight_.end() &&
            std::find(joins.begin(), joins.end(), fit->second) == joins.end()) {
          joins.push_back(fit->second);
        }
      }
      continue;  // hit or zero-fill: no I/O of our own
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
  if (faulted_pages > 0 && recorder_ != nullptr) {
    // One batched flight record per faulting access (see Access above).
    recorder_->Instant(TraceCategory::kMem, "faults", sim_.Now(), 0, faulted_pages,
                       static_cast<int64_t>(as.id()));
  }
  if (runs.empty() && joins.empty()) {
    if (tracer_ != nullptr) {
      tracer_->Span(TraceCategory::kMem, "access", trace_track_, access_start, access_start,
                    "pages", static_cast<int64_t>(count), "io_pages", int64_t{0});
    }
    if (done) {
      uint64_t id = CreateOp(std::move(done), done_key);
      ops_.at(id).remaining = 1;
      ScheduleOpFire(id, Duration::Zero());
    }
    return;
  }
  // The access completes when its own read chain AND every joined in-flight read land.
  uint64_t id = CreateOp(std::move(done), done_key);
  PagerOp& op = ops_.at(id);
  op.remaining = joins.size() + (runs.empty() ? 0u : 1u);
  if (tracer_ != nullptr || recorder_ != nullptr) {
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
    op.throttled = true;
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
  for (uint64_t vpn = first; vpn < first + count; ++vpn) {
    bool was_missing = !as.IsResident(vpn);
    MakeResident(as, vpn, /*write=*/false);
    // Prefault is setup, not simulation: undo the accounting it produced.
    if (was_missing) {
      --faults_;
    } else {
      --hits_;
    }
  }
}

void Pager::RegisterRestorers(EventRearm& plan) {
  plan.RegisterRestorer(kResumePagerChain, [this](const ResumeKey& key) {
    uint64_t id = key.arg(0);
    return [this, id] { OnChainStep(id); };
  });
}

void Pager::SaveTo(SnapshotWriter& w) const {
  // Address spaces, in creation order (identity + page tables).
  w.U64(spaces_.size());
  for (const auto& sp : spaces_) {
    sp->SaveTo(w);
  }
  // Frame slab and recency/free lists. Frame owners are recorded by address-space id
  // (0 = free slot).
  w.U64(frames_.size());
  for (const Frame& f : frames_) {
    w.U64(f.as != nullptr ? f.as->id() : 0);
    w.U64(f.vpn);
    w.U32(f.prev);
    w.U32(f.next);
  }
  w.U32(lru_head_);
  w.U32(lru_tail_);
  w.U32(free_head_);
  w.U64(frames_used_);
  // Shared segments, sorted by key for a deterministic encoding.
  std::vector<std::pair<std::string, const SharedEntry*>> shared;
  shared.reserve(shared_.size());
  for (const auto& [key, entry] : shared_) {
    shared.emplace_back(key, &entry);
  }
  std::sort(shared.begin(), shared.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.U64(shared.size());
  for (const auto& [key, entry] : shared) {
    w.Str(key);
    w.U64(entry->space->id());
    w.I64(entry->refs);
  }
  // In-flight page-in coverage and the op table.
  w.U64(in_flight_.size());
  for (const auto& [key, op_id] : in_flight_) {
    w.U64(key);
    w.U64(op_id);
  }
  w.U64(ops_.size());
  for (const auto& [id, op] : ops_) {
    if (op.done && op.done_key.empty()) {
      throw SnapshotError("pager.op",
                          "incomplete page access has a completion callback but no "
                          "ResumeKey; attach one at the Access/AccessRange site");
    }
    w.U64(id);
    w.U64(op.remaining);
    w.Bool(static_cast<bool>(op.done));
    op.done_key.SaveTo(w);
    w.U64(op.runs.size());
    for (int run : op.runs) {
      w.I64(run);
    }
    w.U64(op.next_run);
    w.U64(op.keys.size());
    for (uint64_t key : op.keys) {
      w.U64(key);
    }
    w.Bool(op.throttled);
    w.U64(op.waiter_ops.size());
    for (uint64_t wo : op.waiter_ops) {
      w.U64(wo);
    }
    w.Bool(op.traced);
    w.Time(op.access_start);
    w.I64(op.count);
    w.I64(op.io_pages);
  }
  w.U64(next_op_id_);
  // Pending pager-internal events.
  for (const std::vector<PendingOpEvent>* list : {&fires_, &issues_}) {
    w.U64(list->size());
    for (const PendingOpEvent& pe : *list) {
      uint64_t seq = 0;
      TimePoint when;
      if (!sim_.PendingInfo(pe.ev, &seq, &when)) {
        throw SnapshotError("pager.pending", "pending op-event record is stale");
      }
      w.U64(seq);
      w.Time(when);
      w.U64(pe.op);
    }
  }
  // Counters.
  w.I64(faults_);
  w.I64(hits_);
  w.I64(evictions_);
  w.I64(dirty_writebacks_);
  w.I64(protected_skips_);
  w.I64(shared_attaches_);
  w.I64(coalesced_waits_);
  w.U64(next_as_id_);
}

void Pager::LoadFrom(SnapshotReader& r, EventRearm& plan) {
  uint64_t n_spaces = r.U64();
  if (n_spaces != spaces_.size()) {
    throw SnapshotError("pager.spaces",
                        "snapshot has " + std::to_string(n_spaces) +
                            " address spaces but the rebuilt pager has " +
                            std::to_string(spaces_.size()) +
                            " (checkpointing across address-space creation/teardown "
                            "requires matching reconstruction)");
  }
  std::map<uint64_t, AddressSpace*> by_id;
  for (auto& sp : spaces_) {
    uint64_t id = r.U64();
    std::string name = r.Str();
    bool interactive = r.Bool();
    if (id != sp->id() || name != sp->name() || interactive != sp->interactive()) {
      throw SnapshotError("pager.space." + name,
                          "address-space topology drift: snapshot space (id " +
                              std::to_string(id) + ", \"" + name +
                              "\") does not match rebuilt space (id " +
                              std::to_string(sp->id()) + ", \"" + sp->name() + "\")");
    }
    sp->LoadFrom(r);
    by_id[sp->id()] = sp.get();
  }
  frames_.assign(r.U64(), Frame{});
  for (Frame& f : frames_) {
    uint64_t as_id = r.U64();
    if (as_id != 0) {
      auto it = by_id.find(as_id);
      if (it == by_id.end()) {
        throw SnapshotError("pager.frames", "frame references unknown address space id " +
                                                std::to_string(as_id));
      }
      f.as = it->second;
    }
    f.vpn = r.U64();
    f.prev = r.U32();
    f.next = r.U32();
  }
  lru_head_ = r.U32();
  lru_tail_ = r.U32();
  free_head_ = r.U32();
  frames_used_ = r.U64();
  uint64_t n_shared = r.U64();
  if (n_shared != shared_.size()) {
    throw SnapshotError("pager.shared",
                        "snapshot has " + std::to_string(n_shared) +
                            " shared segments but the rebuilt pager has " +
                            std::to_string(shared_.size()));
  }
  for (uint64_t i = 0; i < n_shared; ++i) {
    std::string key = r.Str();
    uint64_t space_id = r.U64();
    int refs = static_cast<int>(r.I64());
    auto it = shared_.find(key);
    if (it == shared_.end() || it->second.space->id() != space_id) {
      throw SnapshotError("pager.shared." + key,
                          "shared-segment topology drift: rebuilt pager has no matching "
                          "segment");
    }
    it->second.refs = refs;
  }
  in_flight_.clear();
  uint64_t n_in_flight = r.U64();
  for (uint64_t i = 0; i < n_in_flight; ++i) {
    uint64_t key = r.U64();
    in_flight_[key] = r.U64();
  }
  ops_.clear();
  uint64_t n_ops = r.U64();
  for (uint64_t i = 0; i < n_ops; ++i) {
    uint64_t id = r.U64();
    PagerOp& op = ops_[id];
    op.remaining = r.U64();
    bool has_done = r.Bool();
    op.done_key = ResumeKey::LoadFrom(r);
    if (has_done) {
      op.done = plan.Build(op.done_key);
    }
    op.runs.assign(r.U64(), 0);
    for (int& run : op.runs) {
      run = static_cast<int>(r.I64());
    }
    op.next_run = r.U64();
    op.keys.assign(r.U64(), 0);
    for (uint64_t& key : op.keys) {
      key = r.U64();
    }
    op.throttled = r.Bool();
    op.waiter_ops.assign(r.U64(), 0);
    for (uint64_t& wo : op.waiter_ops) {
      wo = r.U64();
    }
    op.traced = r.Bool();
    op.access_start = r.Time();
    op.count = r.I64();
    op.io_pages = r.I64();
  }
  next_op_id_ = r.U64();
  fires_.clear();
  issues_.clear();
  for (int which = 0; which < 2; ++which) {
    std::vector<PendingOpEvent>& list = which == 0 ? fires_ : issues_;
    uint64_t n = r.U64();
    list.reserve(n);  // EventId out-pointers below must stay stable
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t seq = r.U64();
      TimePoint when = r.Time();
      uint64_t op_id = r.U64();
      list.push_back(PendingOpEvent{EventId(), op_id});
      if (which == 0) {
        plan.Schedule(
            "pager.fire", seq, when, [this, op_id] { OnOpFire(op_id); },
            &list.back().ev);
      } else {
        plan.Schedule(
            "pager.issue", seq, when, [this, op_id] { OnIssueFire(op_id); },
            &list.back().ev);
      }
    }
  }
  faults_ = r.I64();
  hits_ = r.I64();
  evictions_ = r.I64();
  dirty_writebacks_ = r.I64();
  protected_skips_ = r.I64();
  shared_attaches_ = r.I64();
  coalesced_waits_ = r.I64();
  next_as_id_ = r.U64();
}

}  // namespace tcs
