// Evans et al.'s interactive SVR4 scheduler (1993 Summer USENIX), the paper's comparison
// point for what *good* interactive scheduling looks like (§4.2.1-4.2.2): keystroke
// latency stays constant and small even as load approaches 20.
//
// Model: two bands. The interactive (IA) band — GUI threads plus system daemons — has
// absolute priority over the timeshare (TS) band and preempts it on wakeup. Within each
// band, round-robin with a 10 ms quantum. Threads that are not statically GUI-class can
// earn IA membership through behaviour: a thread that consistently blocks before
// exhausting its quantum accumulates an interactivity score; CPU hogs decay to TS.

#ifndef TCS_SRC_CPU_SVR4_SCHEDULER_H_
#define TCS_SRC_CPU_SVR4_SCHEDULER_H_

#include <deque>

#include "src/cpu/scheduler.h"

namespace tcs {

struct Svr4SchedulerConfig {
  Duration quantum = Duration::Millis(10);
  // Score in [0,1]; at or above this a thread is treated as interactive.
  double ia_threshold = 0.5;
  // Exponential smoothing factor for the interactivity score update.
  double score_alpha = 0.3;
};

class Svr4InteractiveScheduler final : public Scheduler {
 public:
  explicit Svr4InteractiveScheduler(Svr4SchedulerConfig config = {});

  void OnReady(Thread& t, WakeReason reason) override;
  void OnPreempted(Thread& t) override;
  void OnQuantumExpired(Thread& t) override;
  void OnBlocked(Thread& t) override;
  Thread* PickNext() override;
  Duration QuantumFor(const Thread& t) const override;
  bool ShouldPreempt(const Thread& running, const Thread& woken) const override;
  size_t ReadyCount() const override { return ia_.size() + ts_.size(); }
  std::string name() const override { return "svr4-ia"; }

  // Exposed for the memory-throttling ablation: whether the scheduler currently considers
  // `t` interactive (and therefore protected).
  bool IsInteractive(const Thread& t) const;

 private:
  Svr4SchedulerConfig config_;
  std::deque<Thread*> ia_;
  std::deque<Thread*> ts_;
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_SVR4_SCHEDULER_H_
