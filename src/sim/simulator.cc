#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tcs {

EventId Simulator::At(TimePoint when, EventQueue::Callback cb) {
  assert(when >= now_ && "cannot schedule into the past");
  return queue_.Schedule(when, std::move(cb));
}

uint64_t Simulator::Run() {
  return RunUntil(TimePoint::Infinite());
}

TimePoint Simulator::Horizon() const {
  if (stop_requested_) {
    return now_;
  }
  return queue_.empty() ? deadline_ : std::min(queue_.NextTime(), deadline_);
}

uint64_t Simulator::RunUntil(TimePoint deadline) {
  stop_requested_ = false;
  deadline_ = deadline;
  uint64_t executed = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.NextTime() > deadline) {
      break;
    }
    TimePoint when;
    EventQueue::Callback cb = queue_.Pop(&when);
    now_ = when;
    cb();
    ++executed;
    ++events_executed_;
    if (dispatch_hook_) {
      dispatch_hook_(when, queue_.size());
    }
  }
  if (deadline != TimePoint::Infinite() && now_ < deadline && !stop_requested_) {
    now_ = deadline;
  }
  deadline_ = now_;
  return executed;
}

}  // namespace tcs
