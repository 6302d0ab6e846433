// "Measuring lost time" (Endo et al., OSDI '96), as used by the paper for Figures 1 and 2.
//
// The original instrumented the Pentium performance counters and the system idle loop to
// find when, and for how long, the CPU was busy. Our simulated equivalent subscribes to
// Cpu segment notifications and coalesces abutting segments into *busy periods*. Each
// busy period is an "event" in the sense of Figure 2: a contiguous interval during which
// any user input arriving would have been delayed.
//
// Outputs:
//  * utilization(bucket) — CPU utilization per fixed time bucket (Figure 1)
//  * busy-period duration samples + the cumulative-latency curve (Figure 2)

#ifndef TCS_SRC_CPU_IDLE_PROFILER_H_
#define TCS_SRC_CPU_IDLE_PROFILER_H_

#include <unordered_map>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/util/time_series.h"

namespace tcs {

class IdleLoopProfiler {
 public:
  // Attaches to `cpu`. `utilization_bucket` is the Figure-1 trace resolution (the paper
  // plots ~100 ms buckets over 10 s). `episode_gap` controls per-thread episode
  // attribution: consecutive run segments of one thread separated by no more than this
  // gap belong to one "event" in the lost-time sense — a Session Manager scan that runs
  // at 25% duty for a second is one 250 ms event, while 10 ms-spaced clock ticks remain
  // individual events.
  IdleLoopProfiler(Cpu& cpu, Duration utilization_bucket = Duration::Millis(100),
                   Duration episode_gap = Duration::Millis(8));

  IdleLoopProfiler(const IdleLoopProfiler&) = delete;
  IdleLoopProfiler& operator=(const IdleLoopProfiler&) = delete;

  // Closes the currently open busy period (call once at end of measurement).
  void Flush();

  // Raw busy-microsecond series; prefer UtilizationAt() for the [0,1] readout.
  const TimeSeries& utilization() const { return utilization_; }

  // CPU utilization of bucket `i` in [0,1].
  double UtilizationAt(size_t i) const {
    return utilization_.Sum(i) / static_cast<double>(utilization_.bucket_width().ToMicros());
  }

  // All observed busy-period durations (CPU-level: any thread, contiguous).
  const std::vector<Duration>& busy_periods() const { return busy_periods_; }

  // Per-thread event durations: the CPU time of each coalesced per-thread episode. These
  // are the "events" of Figure 2 (e.g. TSE's 250 ms and 400 ms entries).

  // Figure 2: points (event length, cumulative busy time of all events with length <= x),
  // sorted ascending. Built from per-thread episodes.
  struct CumulativePoint {
    Duration event_length;
    Duration cumulative_latency;
  };
  std::vector<CumulativePoint> CumulativeLatencyCurve() const;

  // Total busy time across all periods (the aggregate "idle-state load").
  Duration TotalBusy() const;

 private:
  struct EpisodeState {
    TimePoint last_end;
    Duration accumulated = Duration::Zero();
    bool open = false;
  };

  void OnSegment(TimePoint start, TimePoint end, const Thread& thread);

  TimeSeries utilization_;
  Duration episode_gap_;
  std::vector<Duration> busy_periods_;
  bool in_busy_period_ = false;
  TimePoint period_start_;
  TimePoint period_end_;
  std::vector<Duration> episodes_;
  std::unordered_map<uint64_t, EpisodeState> per_thread_;
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_IDLE_PROFILER_H_
