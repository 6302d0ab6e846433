// Helper for self-rescheduling periodic activity (daemon ticks, animation frames, traffic
// sources). Owns its pending event; destroying the task cancels the next firing, so model
// components can hold PeriodicTask members without dangling-callback hazards — provided the
// task is destroyed no later than the Simulator.

#ifndef TCS_SRC_SIM_PERIODIC_H_
#define TCS_SRC_SIM_PERIODIC_H_

#include <functional>
#include <utility>

#include "src/sim/simulator.h"

namespace tcs {

class PeriodicTask {
 public:
  using Tick = std::function<void()>;

  PeriodicTask(Simulator& sim, Duration period, Tick tick)
      : sim_(sim), period_(period), tick_(std::move(tick)) {}

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { Stop(); }

  // Arms the task. First firing happens after `initial_delay`; subsequent firings every
  // period. Re-starting an armed task is a no-op.
  void Start(Duration initial_delay = Duration::Zero());

  // Cancels the pending firing, if any.
  void Stop();

  bool IsRunning() const { return pending_.IsValid() && sim_.IsPending(pending_); }

  Duration period() const { return period_; }
  void set_period(Duration period) { period_ = period; }

 private:
  void Fire();

  Simulator& sim_;
  Duration period_;
  Tick tick_;
  EventId pending_;
};

}  // namespace tcs

#endif  // TCS_SRC_SIM_PERIODIC_H_
