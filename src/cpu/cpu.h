// Policy-free CPU execution engine.
//
// The Cpu dispatches Threads chosen by a Scheduler onto one or more processors, charging
// virtual time against the front WorkItem of each running thread in "segments". A segment
// ends when the work item completes, the quantum expires, or a higher-priority wakeup
// preempts. Completion callbacks are deferred to their own simulation event (same
// timestamp) so model code never re-enters the engine mid-transition.
//
// SMP: with config.processors > 1 the single ready queue feeds all processors (the
// NT/Linux model of the era); a wakeup preempts the weakest running thread that the
// scheduler policy says it may displace. With one processor (the default) behaviour is
// identical to the original uniprocessor engine.
//
// Segment observers receive every executed busy interval (including context-switch cost),
// which is exactly the instrumentation the paper's "measuring lost time" methodology
// needs.

#ifndef TCS_SRC_CPU_CPU_H_
#define TCS_SRC_CPU_CPU_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/scheduler.h"
#include "src/cpu/thread.h"
#include "src/obs/emitter.h"
#include "src/sim/simulator.h"

namespace tcs {

struct CpuConfig {
  // Relative processor speed. Work costs are divided by this, so 2.0 halves every burst —
  // used by the boost-threshold ablation (faster CPU brings operations under the 180 ms
  // boost grace period, as §4.2.1 predicts).
  double speed = 1.0;
  // Direct cost of a context switch, charged whenever a processor switches to a different
  // thread. This is what makes short quanta fragment execution (the paper's "latency
  // catch-22").
  Duration context_switch_cost = Duration::Micros(10);
  // Number of processors sharing the scheduler's ready queue.
  int processors = 1;
};

class Cpu {
 public:
  // Called at the end of every executed segment with its actual extent.
  using SegmentObserver =
      std::function<void(TimePoint start, TimePoint end, const Thread& thread)>;

  Cpu(Simulator& sim, std::unique_ptr<Scheduler> scheduler, CpuConfig config = {});

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // Creates a thread owned by this Cpu. Starts blocked with no work.
  Thread* CreateThread(std::string name, ThreadClass cls, int base_priority);

  // Queues `cost` of CPU demand on `t` (scaled by config.speed); wakes `t` if blocked.
  // `on_complete` (may be null) runs when the burst has been fully executed.
  void PostWork(Thread& t, Duration cost, std::function<void()> on_complete = nullptr,
                WakeReason reason = WakeReason::kOther);

  void AddSegmentObserver(SegmentObserver obs) { observers_.push_back(std::move(obs)); }

  // Observability: registers one trace track per processor plus a policy track for the
  // scheduler (which traces its decisions), then emits every executed segment to both
  // sinks as a cpu span named after the running thread (thread id and priority args) and
  // every preemption as a cpu instant.
  void Attach(Emitter emit);

  Scheduler& scheduler() { return *scheduler_; }
  // True when every processor is idle.
  bool IsIdle() const;

  // Total CPU busy time (work + context switches) summed over all processors.
  Duration busy_time() const { return busy_time_; }

  // The execution time `cost` of demand actually occupies at this CPU's speed — the same
  // scaling PostWork applies, exposed so latency attribution can split a hop's elapsed
  // time into exact service vs. run-queue wait.
  Duration ScaledCost(Duration cost) const { return ScaleCost(cost); }

 private:
  struct Processor {
    int index = 0;
    Thread* running = nullptr;
    EventId segment_end;
    TimePoint segment_start;
    Duration segment_switch_cost = Duration::Zero();
    Duration segment_planned_work = Duration::Zero();
    TraceTrack track;  // "cpu/cpuN"
  };

  void Wake(Thread& t, WakeReason reason);
  // Fills every idle processor from the scheduler.
  void Dispatch();
  void StartSegment(Processor& proc, Thread& t, bool charge_switch);
  void Preempt(Processor& proc);
  void OnSegmentEnd(Processor& proc);
  // Charges executed time on `proc` up to `end` and notifies observers.
  void AccountSegment(Processor& proc, TimePoint end);
  Duration ScaleCost(Duration cost) const;
  // The running processor the scheduler allows `woken` to displace, preferring the
  // weakest victim; nullptr if none.
  Processor* PreemptionVictim(const Thread& woken);

  Simulator& sim_;
  std::unique_ptr<Scheduler> scheduler_;
  CpuConfig config_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<SegmentObserver> observers_;
  std::vector<Processor> processors_;
  Emitter emit_;

  Duration busy_time_ = Duration::Zero();
  uint64_t next_thread_id_ = 1;
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_CPU_H_
