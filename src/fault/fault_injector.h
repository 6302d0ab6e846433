// Per-layer fault injectors.
//
// Injectors hold the mutable fault state for one run: a dedicated Rng (forked from the
// FaultPlan seed), the lazily generated flap windows, and the fault counters the
// experiment reports reconcile against. They are consulted inline by Link and Disk; a
// null injector pointer is the fault-free fast path (one branch, no stream consumption).
//
// Determinism: all queries happen at non-decreasing virtual times within a run, every
// random draw comes from the injector's own stream, and flap windows are generated
// sequentially from that stream — so two runs with the same plan and seed inject
// byte-identical fault sequences regardless of wall-clock interleaving.

#ifndef TCS_SRC_FAULT_FAULT_INJECTOR_H_
#define TCS_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/obs/emitter.h"
#include "src/sim/random.h"

namespace tcs {

class LinkFaultInjector {
 public:
  enum class Fate { kDelivered, kLost, kCorrupted, kOutage };

  LinkFaultInjector(LinkFaultPlan plan, uint64_t seed);

  // Decides the fate of a frame occupying the wire over [start, end). Counts it.
  Fate Classify(TimePoint start, TimePoint end);

  // True if `t` falls inside a scripted or generated outage window.
  bool InOutage(TimePoint t);

  // Extra transit delay for one keystroke-sized input message sent at `now`: lost copies
  // are retried every `retry_interval` (doubling, capped at 8x), and an outage holds the
  // message until the window closes. Zero when the input channel is healthy. When
  // `retransmit_out`/`outage_out` are non-null they receive the penalty's two components
  // (retry time vs. outage hold; their sum is the return value) so latency attribution
  // can bill them separately — the split consumes no extra random draws.
  Duration InputDelayPenalty(TimePoint now, Duration retry_interval,
                             Duration* retransmit_out = nullptr,
                             Duration* outage_out = nullptr);

  // Total outage time in [0, end) — the link-downtime leg of availability.
  Duration OutageTimeBefore(TimePoint end);

  // WAN pathology queries. All are inert (zero / no stream consumption) when the plan's
  // WanLinkPlan is empty, so LAN runs stay byte-identical.
  const WanLinkPlan& wan() const { return plan_.wan; }
  bool wan_active() const { return wan_active_; }
  // Extra one-way transit for a display-direction frame: extra_delay plus a jitter draw
  // from the dedicated WAN stream (consumed only when jitter > 0).
  Duration WanFrameExtra();
  // Extra one-way transit for an input-direction message; same shape, separate stream so
  // input cadence never perturbs frame delivery times.
  Duration WanInputExtra();

  int64_t frames_lost() const { return frames_lost_; }
  int64_t frames_corrupted() const { return frames_corrupted_; }
  int64_t outage_drops() const { return outage_drops_; }
  int64_t input_frames_lost() const { return input_frames_lost_; }
  // Subset of frames_lost() decided by the Gilbert–Elliott chain.
  int64_t burst_losses() const { return burst_losses_; }
  // Fraction of Classify() calls made while the chain sat in the bad state.
  double BadStateFraction() const {
    return ge_steps_ > 0
               ? static_cast<double>(ge_bad_steps_) / static_cast<double>(ge_steps_)
               : 0.0;
  }

  // Observability: each outage window becomes a fault-category trace span when generated
  // (scripted windows at once).
  void Attach(Emitter emit);

 private:
  // Extends generated flap windows until they cover virtual time `horizon`.
  void GenerateFlapsThrough(TimePoint horizon);
  // True if [start, end) overlaps any window in `windows` (sorted, non-overlapping).
  static bool Overlaps(const std::vector<OutageWindow>& windows, TimePoint start,
                       TimePoint end);
  // End of the outage window covering `t`, or `t` itself if none.
  TimePoint OutageEndAfter(TimePoint t);

  LinkFaultPlan plan_;
  Rng rng_;
  Rng input_rng_;  // separate stream: input retries must not perturb frame fates
  // WAN streams, consumed only when the plan's WanLinkPlan is non-empty: the frame
  // stream drives the Gilbert–Elliott chain and display-direction jitter, the input
  // stream drives input-direction jitter.
  Rng wan_rng_;
  Rng wan_input_rng_;
  bool wan_active_ = false;
  bool ge_bad_ = false;  // Gilbert–Elliott chain state (starts good)
  Emitter emit_;
  TraceTrack trace_track_;
  std::vector<OutageWindow> generated_;  // flap windows, in time order
  TimePoint flap_cursor_ = TimePoint::Zero();  // generation horizon reached so far
  int64_t frames_lost_ = 0;
  int64_t frames_corrupted_ = 0;
  int64_t outage_drops_ = 0;
  int64_t input_frames_lost_ = 0;
  int64_t burst_losses_ = 0;
  int64_t ge_steps_ = 0;
  int64_t ge_bad_steps_ = 0;
};

class DiskFaultInjector {
 public:
  DiskFaultInjector(DiskFaultPlan plan, uint64_t seed);

  // Extra service time injected into one request whose healthy service time is
  // `service`: a stall spike and/or up to 3 transient-error retries.
  Duration Perturb(Duration service);

  int64_t stalls() const { return stalls_; }
  int64_t io_errors() const { return io_errors_; }
  double StallRate() const {
    return requests_ > 0 ? static_cast<double>(stalls_) / static_cast<double>(requests_)
                         : 0.0;
  }

 private:
  DiskFaultPlan plan_;
  Rng rng_;
  int64_t requests_ = 0;
  int64_t stalls_ = 0;
  int64_t io_errors_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_FAULT_FAULT_INJECTOR_H_
