#include "src/cpu/nt_scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/util/config_error.h"

namespace tcs {

NtScheduler::NtScheduler(NtSchedulerConfig config) : config_(config) {
  if (!(config_.quantum > Duration::Zero())) {
    throw ConfigError("NtSchedulerConfig.quantum", "quantum must be positive");
  }
  assert(config_.foreground_stretch >= 1 && config_.foreground_stretch <= 3);
  assert(config_.gui_boost_priority >= 0 && config_.gui_boost_priority < kLevels);
}

void NtScheduler::PushBack(Thread& t) {
  assert(t.sched_priority >= 0 && t.sched_priority < kLevels);
  queues_[static_cast<size_t>(t.sched_priority)].push_back(&t);
  ++ready_count_;
}

void NtScheduler::PushFront(Thread& t) {
  assert(t.sched_priority >= 0 && t.sched_priority < kLevels);
  queues_[static_cast<size_t>(t.sched_priority)].push_front(&t);
  ++ready_count_;
}

void NtScheduler::OnReady(Thread& t, WakeReason reason) {
  if (config_.gui_boost_enabled && t.thread_class() == ThreadClass::kGui &&
      reason == WakeReason::kInputEvent) {
    t.sched_priority = std::max(t.base_priority(), config_.gui_boost_priority);
    t.boost_quanta = config_.gui_boost_quanta;
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceCategory::kSched, "gui-boost", trace_track_,
                       t.last_ready_at(), "thread", static_cast<int64_t>(t.id()), "prio",
                       t.sched_priority);
    }
  } else if (t.boost_quanta == 0) {
    t.sched_priority = t.base_priority();
  }
  PushBack(t);
}

void NtScheduler::OnPreempted(Thread& t) {
  // A preempted thread keeps its priority and remaining quantum and returns to the front
  // of its level, so it resumes as soon as the interloper is gone.
  PushFront(t);
}

void NtScheduler::OnQuantumExpired(Thread& t) {
  if (t.boost_quanta > 0) {
    --t.boost_quanta;
    if (t.boost_quanta == 0) {
      t.sched_priority = t.base_priority();
      if (tracer_ != nullptr) {
        tracer_->Instant(TraceCategory::kSched, "boost-decay", trace_track_,
                         t.last_ready_at(), "thread", static_cast<int64_t>(t.id()),
                         "prio", t.sched_priority);
      }
    }
  }
  PushBack(t);
}

void NtScheduler::OnBlocked(Thread& t) {
  // Boost state survives a block only until the next wake decides afresh; clear it so a
  // non-input wake does not inherit a stale boost.
  t.boost_quanta = 0;
  t.sched_priority = t.base_priority();
}

Thread* NtScheduler::PickNext() {
  for (int level = kLevels - 1; level >= 0; --level) {
    auto& q = queues_[static_cast<size_t>(level)];
    if (!q.empty()) {
      Thread* t = q.front();
      q.pop_front();
      --ready_count_;
      return t;
    }
  }
  return nullptr;
}

Duration NtScheduler::QuantumFor(const Thread& t) const {
  if (t.thread_class() == ThreadClass::kGui) {
    return config_.quantum * config_.foreground_stretch;
  }
  return config_.quantum;
}

bool NtScheduler::ShouldPreempt(const Thread& running, const Thread& woken) const {
  return woken.sched_priority > running.sched_priority;
}

}  // namespace tcs
