#include "src/cpu/cpu.h"

#include <algorithm>
#include <cassert>
#include <utility>

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
  if (emit_.on()) {
    t->trace_name = InternName(t->name());
  }
  return t;
}

void Cpu::Attach(Emitter emit) {
  emit_ = emit;
  for (Processor& proc : processors_) {
    proc.track = emit_.Track("cpu", "cpu" + std::to_string(proc.index));
  }
  scheduler_->Attach(emit_, emit_.Track("cpu", "sched"));
  if (emit_.on()) {
    for (const auto& t : threads_) {
      t->trace_name = InternName(t->name());
    }
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
                   WakeReason reason) {
  assert(t.state() != ThreadState::kTerminated);
  Duration scaled = ScaleCost(cost);
  bool was_blocked = t.state() == ThreadState::kBlocked;
  // Invariant: a blocked thread has an empty work queue (threads block only when drained).
  assert(!was_blocked || !t.HasWork());
  t.PushWork(WorkItem{scaled, std::move(on_complete), reason});
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
    emit_.Span(TraceCategory::kCpu, t.trace_name, proc.track, proc.segment_start, end,
               {"thread", static_cast<int64_t>(t.id())}, {"prio", t.sched_priority});
  }
}

void Cpu::Preempt(Processor& proc) {
  assert(proc.running != nullptr);
  sim_.Cancel(proc.segment_end);
  AccountSegment(proc, sim_.Now());
  Thread& t = *proc.running;
  emit_.Instant(TraceCategory::kCpu, "preempt", proc.track, sim_.Now(),
                {"thread", static_cast<int64_t>(t.id())});
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
      // mid-transition).
      sim_.Schedule(Duration::Zero(), std::move(item.on_complete));
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

}  // namespace tcs
