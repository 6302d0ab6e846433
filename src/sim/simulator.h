// The discrete-event simulation kernel.
//
// A Simulator owns the virtual clock and the pending-event set. Model components hold a
// Simulator& and use Schedule()/At()/Now() to advance their state machines. The run loop
// is single-threaded and deterministic: identical inputs produce identical event orders.

#ifndef TCS_SRC_SIM_SIMULATOR_H_
#define TCS_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace tcs {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint Now() const { return now_; }

  // Schedules `cb` to run after `delay` of virtual time (>= 0).
  EventId Schedule(Duration delay, EventQueue::Callback cb) {
    return At(now_ + delay, std::move(cb));
  }

  // Schedules `cb` at an absolute virtual time, which must not be in the past.
  EventId At(TimePoint when, EventQueue::Callback cb);

  bool Cancel(EventId id) { return queue_.Cancel(id); }
  bool IsPending(EventId id) const { return queue_.IsPending(id); }

  // Runs until the event queue drains or a stop is requested. Returns events executed.
  uint64_t Run();

  // Runs until virtual time reaches `deadline` (events at exactly `deadline` execute),
  // the queue drains, or a stop is requested. The clock is left at min(deadline, last
  // event time >= now). Returns events executed.
  uint64_t RunUntil(TimePoint deadline);

  // Runs for `span` more virtual time.
  uint64_t RunFor(Duration span) { return RunUntil(now_ + span); }

  // The earliest virtual time at which another event can run: the next pending event's
  // time, capped at the running RunUntil's deadline (events at the deadline still run).
  // Now() outside a run and once a stop is requested. State changes an event makes for
  // instants strictly before the horizon are invisible to every other component and to
  // the run's caller, so the event may apply them itself instead of scheduling them.
  TimePoint Horizon() const;

  // Callable from within an event callback to halt the run loop after the current event.
  void RequestStop() { stop_requested_ = true; }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }

  // Observability hook: invoked after each executed event with its dispatch time and the
  // queue depth it left behind. Unset (the default) costs one branch per event; the obs
  // layer wires it to sim-category trace events. The kernel itself stays obs-free so the
  // dependency arrow keeps pointing obs -> sim.
  using DispatchHook = std::function<void(TimePoint when, size_t pending_after)>;
  void set_dispatch_hook(DispatchHook hook) { dispatch_hook_ = std::move(hook); }

 private:
  TimePoint now_ = TimePoint::Zero();
  TimePoint deadline_ = TimePoint::Zero();  // the running RunUntil's; Now() between runs
  EventQueue queue_;
  bool stop_requested_ = false;
  uint64_t events_executed_ = 0;
  DispatchHook dispatch_hook_;
};

}  // namespace tcs

#endif  // TCS_SRC_SIM_SIMULATOR_H_
