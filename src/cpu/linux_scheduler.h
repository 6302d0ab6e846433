// The Linux 2.0 scheduler as the paper characterizes it (§4.2.1, "Linux Scheduling"):
// round-robin with a fixed 10 ms quantum, no quantum-length control, and *no* facility for
// boosting GUI-related or foreground processes — X is user-level, so the kernel cannot
// tell which processes are interactive. Wakeups do not preempt the running process, so any
// input event risks waiting behind the full ready queue — the linear latency growth of
// Figure 3.
//
// Nice values are modelled as a simple multiplier on the quantum (coarse but faithful to
// the counter-based credit of the 2.0 "goodness" loop at equal priorities).

#ifndef TCS_SRC_CPU_LINUX_SCHEDULER_H_
#define TCS_SRC_CPU_LINUX_SCHEDULER_H_

#include <deque>

#include "src/cpu/scheduler.h"

namespace tcs {

struct LinuxSchedulerConfig {
  Duration quantum = Duration::Millis(10);
};

class LinuxScheduler final : public Scheduler {
 public:
  explicit LinuxScheduler(LinuxSchedulerConfig config = {});

  void OnReady(Thread& t, WakeReason reason) override;
  void OnPreempted(Thread& t) override;
  void OnQuantumExpired(Thread& t) override;
  void OnBlocked(Thread& t) override;
  Thread* PickNext() override;
  Duration QuantumFor(const Thread& t) const override;
  bool ShouldPreempt(const Thread& running, const Thread& woken) const override;
  size_t ReadyCount() const override { return queue_.size(); }
  std::string name() const override { return "linux"; }

 private:
  LinuxSchedulerConfig config_;
  std::deque<Thread*> queue_;
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_LINUX_SCHEDULER_H_
