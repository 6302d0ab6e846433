// Simulated kernel threads.
//
// A Thread is a queue of WorkItems (CPU bursts with completion callbacks) plus the
// scheduling state the scheduler implementations maintain. Threads are created and owned
// by a Cpu; model components hold non-owning Thread pointers.

#ifndef TCS_SRC_CPU_THREAD_H_
#define TCS_SRC_CPU_THREAD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/sim/time.h"

namespace tcs {

// How the OS classifies a thread. Schedulers use this for boosting / band placement:
//  kGui    — thread of an interactive application in a user session (editor, shell UI)
//  kDaemon — system service (session manager, terminal service, kflushd)
//  kBatch  — background compute (the paper's `sink` CPU hog)
enum class ThreadClass { kGui, kDaemon, kBatch };

enum class ThreadState { kBlocked, kReady, kRunning, kTerminated };

// Why a blocked thread was made runnable. NT-style schedulers boost differently by cause.
enum class WakeReason { kInputEvent, kIoComplete, kOther };

// A unit of CPU demand. When the thread has accumulated `cost` of CPU time on this item,
// `on_complete` fires (in simulation context; it may post more work, send messages, etc.).
struct WorkItem {
  Duration cost;
  std::function<void()> on_complete;
  WakeReason wake_reason = WakeReason::kOther;
};

class Thread {
 public:
  Thread(uint64_t id, std::string name, ThreadClass cls, int base_priority);

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  ThreadClass thread_class() const { return cls_; }
  ThreadState state() const { return state_; }
  int base_priority() const { return base_priority_; }

  // --- Work queue (managed by Cpu) ---
  bool HasWork() const { return !work_.empty(); }
  WorkItem& CurrentWork() { return work_.front(); }
  void PushWork(WorkItem item) { work_.push_back(std::move(item)); }
  void PopWork() { work_.pop_front(); }

  // CPU time still owed to the current work item.
  Duration remaining() const { return remaining_; }
  void set_remaining(Duration d) { remaining_ = d; }

  // --- Scheduler scratch state ---
  // Effective (possibly boosted) priority. Interpretation is scheduler-specific: larger is
  // better on NT, smaller is better on Unix-style schedulers.
  int sched_priority = 0;
  // Quanta of boost remaining (NT GUI boost).
  int boost_quanta = 0;
  // Portion of the current quantum already consumed.
  Duration quantum_used = Duration::Zero();
  // Set by Svr4InteractiveScheduler: recent sleep-time based interactivity score.
  double interactivity = 0.0;
  // Tracer-interned copy of name() (set by Cpu::SetTracer / CreateThread). Trace events
  // referencing the thread use this pointer, which outlives the thread itself.
  const char* trace_name = nullptr;

  // --- Lifetime / accounting ---
  Duration cpu_time() const { return cpu_time_; }
  void AccountCpu(Duration d) { cpu_time_ += d; }
  int64_t dispatch_count() const { return dispatch_count_; }
  void CountDispatch() { ++dispatch_count_; }
  TimePoint last_ready_at() const { return last_ready_at_; }
  void set_last_ready_at(TimePoint t) { last_ready_at_ = t; }
  TimePoint last_blocked_at() const { return last_blocked_at_; }
  void set_last_blocked_at(TimePoint t) { last_blocked_at_ = t; }

  void set_state(ThreadState s) { state_ = s; }

 private:
  uint64_t id_;
  std::string name_;
  ThreadClass cls_;
  int base_priority_;
  ThreadState state_ = ThreadState::kBlocked;

  std::deque<WorkItem> work_;
  Duration remaining_ = Duration::Zero();

  Duration cpu_time_ = Duration::Zero();
  int64_t dispatch_count_ = 0;
  TimePoint last_ready_at_ = TimePoint::Zero();
  TimePoint last_blocked_at_ = TimePoint::Zero();
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_THREAD_H_
