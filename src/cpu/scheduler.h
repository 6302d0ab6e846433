// Scheduler policy interface.
//
// The Cpu execution engine is policy-free; everything the paper analyzes — quantum length,
// quantum stretching, GUI priority boosting, interactive-class protection — lives in the
// Scheduler implementations (NtScheduler, LinuxScheduler, Svr4InteractiveScheduler).

#ifndef TCS_SRC_CPU_SCHEDULER_H_
#define TCS_SRC_CPU_SCHEDULER_H_

#include <cstddef>
#include <string>

#include "src/cpu/thread.h"
#include "src/obs/emitter.h"
#include "src/sim/time.h"

namespace tcs {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Observability: implementations trace their policy decisions (priority boosts, band
  // promotions/demotions) as sched-category instants on `track`. Schedulers have no
  // clock, so they stamp events with the thread's last_ready_at / last_blocked_at, which
  // the Cpu engine sets just before each callback.
  void Attach(Emitter emit, TraceTrack track) {
    emit_ = emit;
    trace_track_ = track;
  }

  // `t` became runnable (was blocked, or is newly created with work). The scheduler
  // enqueues it and applies any wake-time boost implied by `reason`.
  virtual void OnReady(Thread& t, WakeReason reason) = 0;

  // `t` was running and was preempted by a higher-priority wakeup. It keeps the unused
  // part of its quantum and is re-enqueued (at the front of its level, NT-style).
  virtual void OnPreempted(Thread& t) = 0;

  // `t` exhausted its quantum but still has work. Re-enqueue at the back of its level and
  // decay any boost.
  virtual void OnQuantumExpired(Thread& t) = 0;

  // `t` ran out of work and blocked. Purely bookkeeping (e.g. sleep-begin timestamps).
  virtual void OnBlocked(Thread& t) = 0;

  // Removes and returns the best runnable thread, or nullptr if none.
  virtual Thread* PickNext() = 0;

  // Length of the quantum `t` receives when dispatched (after stretching etc.).
  virtual Duration QuantumFor(const Thread& t) const = 0;

  // Whether a wakeup of `woken` should preempt `running` immediately.
  virtual bool ShouldPreempt(const Thread& running, const Thread& woken) const = 0;

  // Number of threads currently queued (excluding the running one). This is the paper's
  // "scheduler queue length" (Fig. 3 x-axis).
  virtual size_t ReadyCount() const = 0;

  virtual std::string name() const = 0;

 protected:
  Emitter emit_;
  TraceTrack trace_track_;
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_SCHEDULER_H_
