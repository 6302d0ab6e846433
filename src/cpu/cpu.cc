#include "src/cpu/cpu.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/flight_recorder.h"

namespace tcs {

Cpu::Cpu(Simulator& sim, std::unique_ptr<Scheduler> scheduler, CpuConfig config)
    : sim_(sim), scheduler_(std::move(scheduler)), config_(config) {
  assert(scheduler_ != nullptr);
  assert(config_.speed > 0.0);
  assert(config_.processors >= 1);
  processors_.resize(static_cast<size_t>(config_.processors));
  for (size_t p = 0; p < processors_.size(); ++p) {
    processors_[p].index = static_cast<int>(p);
  }
}

Thread* Cpu::CreateThread(std::string name, ThreadClass cls, int base_priority) {
  threads_.push_back(
      std::make_unique<Thread>(next_thread_id_++, std::move(name), cls, base_priority));
  Thread* t = threads_.back().get();
  if (tracer_ != nullptr) {
    t->trace_name = tracer_->Intern(t->name());
  }
  return t;
}

void Cpu::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    return;
  }
  cpu_tracks_.clear();
  for (size_t p = 0; p < processors_.size(); ++p) {
    cpu_tracks_.push_back(tracer_->RegisterTrack("cpu", "cpu" + std::to_string(p)));
  }
  scheduler_->SetTracer(tracer_, tracer_->RegisterTrack("cpu", "sched"));
  for (const auto& t : threads_) {
    t->trace_name = tracer_->Intern(t->name());
  }
}

bool Cpu::IsIdle() const {
  for (const Processor& proc : processors_) {
    if (proc.running != nullptr) {
      return false;
    }
  }
  return true;
}

Duration Cpu::ScaleCost(Duration cost) const {
  if (config_.speed == 1.0) {
    return cost;
  }
  return cost * (1.0 / config_.speed);
}

void Cpu::PostWork(Thread& t, Duration cost, std::function<void()> on_complete,
                   WakeReason reason, ResumeKey key) {
  assert(t.state() != ThreadState::kTerminated);
  Duration scaled = ScaleCost(cost);
  bool was_blocked = t.state() == ThreadState::kBlocked;
  // Invariant: a blocked thread has an empty work queue (threads block only when drained).
  assert(!was_blocked || !t.HasWork());
  t.PushWork(WorkItem{scaled, std::move(on_complete), reason, key});
  if (was_blocked) {
    t.set_remaining(scaled);
    Wake(t, reason);
  }
}

Cpu::Processor* Cpu::PreemptionVictim(const Thread& woken) {
  Processor* victim = nullptr;
  for (Processor& proc : processors_) {
    if (proc.running == nullptr) {
      continue;
    }
    if (!scheduler_->ShouldPreempt(*proc.running, woken)) {
      continue;
    }
    if (victim == nullptr ||
        proc.running->sched_priority < victim->running->sched_priority) {
      victim = &proc;
    }
  }
  return victim;
}

void Cpu::Wake(Thread& t, WakeReason reason) {
  t.set_state(ThreadState::kReady);
  t.set_last_ready_at(sim_.Now());
  scheduler_->OnReady(t, reason);
  bool have_idle = false;
  for (const Processor& proc : processors_) {
    have_idle = have_idle || proc.running == nullptr;
  }
  if (!have_idle) {
    if (Processor* victim = PreemptionVictim(t)) {
      Preempt(*victim);
    }
  }
  Dispatch();
}

void Cpu::Dispatch() {
  for (Processor& proc : processors_) {
    if (proc.running != nullptr) {
      continue;
    }
    Thread* next = scheduler_->PickNext();
    if (next == nullptr) {
      return;  // nothing runnable; remaining processors stay idle
    }
    next->set_state(ThreadState::kRunning);
    next->CountDispatch();
    proc.running = next;
    StartSegment(proc, *next, /*charge_switch=*/true);
  }
}

void Cpu::StartSegment(Processor& proc, Thread& t, bool charge_switch) {
  assert(proc.running == &t);
  assert(t.HasWork());
  Duration quantum = scheduler_->QuantumFor(t);
  Duration quantum_left = quantum - t.quantum_used;
  if (quantum_left <= Duration::Zero()) {
    // Degenerate: quantum already exhausted (can happen after a preemption returned the
    // thread with a sliver left). Treat as immediate expiry by granting a fresh quantum.
    t.quantum_used = Duration::Zero();
    quantum_left = quantum;
  }
  proc.segment_switch_cost = charge_switch ? config_.context_switch_cost : Duration::Zero();
  proc.segment_planned_work = std::min(quantum_left, t.remaining());
  proc.segment_start = sim_.Now();
  Duration total = proc.segment_switch_cost + proc.segment_planned_work;
  proc.segment_end = sim_.Schedule(total, [this, &proc] { OnSegmentEnd(proc); });
}

void Cpu::AccountSegment(Processor& proc, TimePoint end) {
  assert(proc.running != nullptr);
  Thread& t = *proc.running;
  Duration elapsed = end - proc.segment_start;
  Duration work_done = elapsed - proc.segment_switch_cost;
  if (work_done < Duration::Zero()) {
    work_done = Duration::Zero();  // preempted during the switch itself
  }
  work_done = std::min(work_done, proc.segment_planned_work);
  t.set_remaining(t.remaining() - work_done);
  t.quantum_used += work_done;
  t.AccountCpu(work_done);
  busy_time_ += elapsed;
  if (end > proc.segment_start) {
    for (const auto& obs : observers_) {
      obs(proc.segment_start, end, t);
    }
    if (tracer_ != nullptr) {
      tracer_->Span(TraceCategory::kCpu, t.trace_name,
                    cpu_tracks_[static_cast<size_t>(proc.index)], proc.segment_start, end,
                    "prio", t.sched_priority, "switch_us",
                    proc.segment_switch_cost.ToMicros());
    }
    if (recorder_ != nullptr) {
      recorder_->Span(TraceCategory::kCpu, "seg", proc.segment_start, end, 0,
                      static_cast<int64_t>(t.id()), t.sched_priority);
    }
  }
}

void Cpu::Preempt(Processor& proc) {
  assert(proc.running != nullptr);
  sim_.Cancel(proc.segment_end);
  AccountSegment(proc, sim_.Now());
  Thread& t = *proc.running;
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceCategory::kCpu, "preempt",
                     cpu_tracks_[static_cast<size_t>(proc.index)], sim_.Now(), "thread",
                     static_cast<int64_t>(t.id()));
  }
  if (recorder_ != nullptr) {
    recorder_->Instant(TraceCategory::kSched, "preempt", sim_.Now(), 0,
                       static_cast<int64_t>(t.id()));
  }
  proc.running = nullptr;
  t.set_state(ThreadState::kReady);
  t.set_last_ready_at(sim_.Now());
  scheduler_->OnPreempted(t);
}

void Cpu::OnSegmentEnd(Processor& proc) {
  assert(proc.running != nullptr);
  AccountSegment(proc, sim_.Now());
  Thread& t = *proc.running;
  if (t.remaining().IsZero()) {
    // Current work item complete.
    WorkItem item = std::move(t.CurrentWork());
    t.PopWork();
    if (t.HasWork()) {
      // More queued demand: keep running within the same quantum, no switch cost.
      t.set_remaining(t.CurrentWork().cost);
      StartSegment(proc, t, /*charge_switch=*/false);
    } else {
      // Drained: block until more work arrives. Fresh quantum on next wake.
      t.set_state(ThreadState::kBlocked);
      t.set_last_blocked_at(sim_.Now());
      t.quantum_used = Duration::Zero();
      scheduler_->OnBlocked(t);
      proc.running = nullptr;
    }
    if (item.on_complete) {
      // Defer to a fresh event so callbacks see a settled engine (and cannot re-enter
      // mid-transition). The event is tracked with the item's ResumeKey so a snapshot
      // taken before it fires can name and re-arm it; zero-delay events fire in schedule
      // order, so popping the front record on firing keeps the list in sync.
      EventId id = sim_.Schedule(
          Duration::Zero(), [this, fn = std::move(item.on_complete)]() mutable {
            assert(!deferred_.empty());
            deferred_.erase(deferred_.begin());
            fn();
          });
      deferred_.push_back(DeferredCompletion{id, item.key});
    }
  } else {
    // Quantum expired with work left. A fresh quantum is granted on the next dispatch;
    // boost decay is the scheduler's business.
    t.quantum_used = Duration::Zero();
    t.set_state(ThreadState::kReady);
    t.set_last_ready_at(sim_.Now());
    scheduler_->OnQuantumExpired(t);
    proc.running = nullptr;
  }
  Dispatch();
}

Thread* Cpu::ThreadById(uint64_t id) const {
  for (const auto& t : threads_) {
    if (t->id() == id) {
      return t.get();
    }
  }
  throw SnapshotError("cpu.thread", "snapshot references thread id " + std::to_string(id) +
                                        " which the rebuilt Cpu does not have");
}

void Cpu::SaveTo(SnapshotWriter& w) const {
  w.U64(threads_.size());
  for (const auto& tp : threads_) {
    const Thread& t = *tp;
    // Identity, verified against the rebuilt topology on restore.
    w.U64(t.id());
    w.Str(t.name());
    w.U8(static_cast<uint8_t>(t.thread_class()));
    w.I64(t.base_priority());
    // Dynamic state.
    w.U8(static_cast<uint8_t>(t.state()));
    w.Dur(t.remaining());
    w.U64(t.work_items().size());
    for (const WorkItem& item : t.work_items()) {
      bool has_cb = static_cast<bool>(item.on_complete);
      if (has_cb && item.key.empty()) {
        throw SnapshotError("cpu.thread." + t.name(),
                            "queued work item has a completion callback but no ResumeKey; "
                            "attach one at the PostWork site to make this workload "
                            "checkpointable");
      }
      w.Dur(item.cost);
      w.U8(static_cast<uint8_t>(item.wake_reason));
      w.Bool(has_cb);
      item.key.SaveTo(w);
    }
    // Scheduler scratch.
    w.I64(t.sched_priority);
    w.I64(t.boost_quanta);
    w.Dur(t.quantum_used);
    w.F64(t.interactivity);
    // Accounting.
    w.Dur(t.cpu_time());
    w.I64(t.dispatch_count());
    w.Time(t.last_ready_at());
    w.Time(t.last_blocked_at());
  }
  w.U64(processors_.size());
  for (const Processor& proc : processors_) {
    bool running = proc.running != nullptr;
    w.Bool(running);
    if (!running) {
      continue;
    }
    uint64_t seq = 0;
    TimePoint when;
    if (!sim_.PendingInfo(proc.segment_end, &seq, &when)) {
      throw SnapshotError("cpu.processor" + std::to_string(proc.index),
                          "running processor has no pending segment-end event");
    }
    w.U64(proc.running->id());
    w.Time(proc.segment_start);
    w.Dur(proc.segment_switch_cost);
    w.Dur(proc.segment_planned_work);
    w.U64(seq);
    w.Time(when);
  }
  w.Dur(busy_time_);
  w.U64(next_thread_id_);
  scheduler_->SaveQueues(w);
  w.U64(deferred_.size());
  for (const DeferredCompletion& d : deferred_) {
    uint64_t seq = 0;
    TimePoint when;
    if (!sim_.PendingInfo(d.id, &seq, &when)) {
      throw SnapshotError("cpu.deferred", "deferred-completion record is stale");
    }
    if (d.key.empty()) {
      throw SnapshotError("cpu.deferred",
                          "pending completion callback has no ResumeKey; attach one at "
                          "the PostWork site to make this workload checkpointable");
    }
    w.U64(seq);
    w.Time(when);
    d.key.SaveTo(w);
  }
}

void Cpu::LoadFrom(SnapshotReader& r, EventRearm& plan) {
  uint64_t n_threads = r.U64();
  if (n_threads != threads_.size()) {
    throw SnapshotError("cpu.threads",
                        "snapshot has " + std::to_string(n_threads) +
                            " threads but the rebuilt Cpu has " +
                            std::to_string(threads_.size()));
  }
  for (auto& tp : threads_) {
    Thread& t = *tp;
    uint64_t id = r.U64();
    std::string name = r.Str();
    auto cls = static_cast<ThreadClass>(r.U8());
    int base_priority = static_cast<int>(r.I64());
    if (id != t.id() || name != t.name() || cls != t.thread_class() ||
        base_priority != t.base_priority()) {
      throw SnapshotError("cpu.thread." + name,
                          "thread topology drift: snapshot thread (id " +
                              std::to_string(id) + ", \"" + name +
                              "\") does not match rebuilt thread (id " +
                              std::to_string(t.id()) + ", \"" + t.name() + "\")");
    }
    t.set_state(static_cast<ThreadState>(r.U8()));
    t.set_remaining(r.Dur());
    t.ClearWork();
    uint64_t n_items = r.U64();
    for (uint64_t i = 0; i < n_items; ++i) {
      WorkItem item;
      item.cost = r.Dur();
      item.wake_reason = static_cast<WakeReason>(r.U8());
      bool has_cb = r.Bool();
      item.key = ResumeKey::LoadFrom(r);
      if (has_cb) {
        item.on_complete = plan.Build(item.key);
      }
      t.PushWork(std::move(item));
    }
    t.sched_priority = static_cast<int>(r.I64());
    t.boost_quanta = static_cast<int>(r.I64());
    t.quantum_used = r.Dur();
    t.interactivity = r.F64();
    t.set_cpu_time(r.Dur());
    t.set_dispatch_count(r.I64());
    t.set_last_ready_at(r.Time());
    t.set_last_blocked_at(r.Time());
  }
  uint64_t n_procs = r.U64();
  if (n_procs != processors_.size()) {
    throw SnapshotError("cpu.processors",
                        "snapshot has " + std::to_string(n_procs) +
                            " processors but the rebuilt Cpu has " +
                            std::to_string(processors_.size()));
  }
  for (Processor& proc : processors_) {
    proc.running = nullptr;
    proc.segment_end = EventId();
    proc.segment_start = TimePoint::Zero();
    proc.segment_switch_cost = Duration::Zero();
    proc.segment_planned_work = Duration::Zero();
    if (!r.Bool()) {
      continue;
    }
    proc.running = ThreadById(r.U64());
    proc.segment_start = r.Time();
    proc.segment_switch_cost = r.Dur();
    proc.segment_planned_work = r.Dur();
    uint64_t seq = r.U64();
    TimePoint when = r.Time();
    plan.Schedule(
        "cpu.segment_end", seq, when, [this, &proc] { OnSegmentEnd(proc); },
        &proc.segment_end);
  }
  busy_time_ = r.Dur();
  next_thread_id_ = r.U64();
  scheduler_->LoadQueues(r, [this](uint64_t id) { return ThreadById(id); });
  deferred_.clear();
  uint64_t n_deferred = r.U64();
  deferred_.reserve(n_deferred);  // EventId out-pointers below must stay stable
  for (uint64_t i = 0; i < n_deferred; ++i) {
    uint64_t seq = r.U64();
    TimePoint when = r.Time();
    ResumeKey key = ResumeKey::LoadFrom(r);
    deferred_.push_back(DeferredCompletion{EventId(), key});
    plan.Schedule(
        "cpu.deferred", seq, when,
        [this, thunk = plan.Build(key)] {
          assert(!deferred_.empty());
          deferred_.erase(deferred_.begin());
          thunk();
        },
        &deferred_.back().id);
  }
}

}  // namespace tcs
