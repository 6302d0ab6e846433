#include "src/cpu/linux_scheduler.h"

#include <algorithm>

#include "src/util/config_error.h"

namespace tcs {

LinuxScheduler::LinuxScheduler(LinuxSchedulerConfig config) : config_(config) {
  if (!(config_.quantum > Duration::Zero())) {
    throw ConfigError("LinuxSchedulerConfig.quantum", "quantum must be positive");
  }
}

void LinuxScheduler::OnReady(Thread& t, WakeReason /*reason*/) {
  t.sched_priority = t.base_priority();  // nice value; no dynamic adjustment
  queue_.push_back(&t);
}

void LinuxScheduler::OnPreempted(Thread& t) {
  queue_.push_front(&t);
}

void LinuxScheduler::OnQuantumExpired(Thread& t) {
  queue_.push_back(&t);
}

void LinuxScheduler::OnBlocked(Thread& /*t*/) {}

Thread* LinuxScheduler::PickNext() {
  if (queue_.empty()) {
    return nullptr;
  }
  Thread* t = queue_.front();
  queue_.pop_front();
  return t;
}

Duration LinuxScheduler::QuantumFor(const Thread& t) const {
  // base_priority holds the nice value (-20 best .. +19 worst); scale the quantum the way
  // the 2.0 counter credit did. nice 0 => exactly one base quantum.
  int nice = std::clamp(t.base_priority(), -20, 19);
  int64_t scale_percent = 100 - nice * 4;  // -20 -> 180%, 0 -> 100%, +19 -> 24%
  return Duration::Micros(config_.quantum.ToMicros() * scale_percent / 100);
}

bool LinuxScheduler::ShouldPreempt(const Thread& /*running*/, const Thread& /*woken*/) const {
  // No wakeup preemption: the woken process waits for the queue to come around.
  return false;
}

}  // namespace tcs
