#include "src/fault/fault_injector.h"

#include <algorithm>

namespace tcs {

namespace {

// A disk latency spike's length, and the recovery delay before a transient I/O error's
// retry.
constexpr Duration kDiskStall = Duration::Millis(200);
constexpr Duration kErrorRetry = Duration::Millis(50);

// Jitters a mean duration by +/-50% — the "seeded-probabilistic" half of a plan.
Duration Jitter(Rng& rng, Duration mean) {
  return std::max(Duration::Micros(1), mean * (0.5 + rng.NextDouble()));
}

}  // namespace

LinkFaultInjector::LinkFaultInjector(LinkFaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)),
      rng_(seed),
      input_rng_(seed ^ 0x1A7E57ull),
      wan_rng_(seed ^ 0x3A11D0ull),
      wan_input_rng_(seed ^ 0x3A11D1ull),
      wan_active_(plan_.wan.Any()) {
  // Normalize scripted windows: Validate() already rejected overlap and disorder, but
  // adjacent windows are legal and must behave exactly like the single merged window
  // (OutageEndAfter must hold a frame through BOTH halves of a back-to-back pair).
  plan_.scripted_outages = MergeAdjacentOutages(std::move(plan_.scripted_outages));
}

void LinkFaultInjector::Attach(Emitter emit) {
  emit_ = emit;
  trace_track_ = emit_.Track("fault", "link-outage");
  // Scripted windows are known up front; emit them immediately.
  for (const OutageWindow& w : plan_.scripted_outages) {
    emit_.Trace().Span(TraceCategory::kFault, "outage", trace_track_, w.from, w.until);
  }
}

void LinkFaultInjector::GenerateFlapsThrough(TimePoint horizon) {
  if (plan_.flap_every.IsZero() || plan_.flap_duration.IsZero()) {
    return;
  }
  while (flap_cursor_ <= horizon) {
    TimePoint start = flap_cursor_ + Jitter(rng_, plan_.flap_every);
    TimePoint end = start + Jitter(rng_, plan_.flap_duration);
    generated_.push_back(OutageWindow{start, end});
    emit_.Trace().Span(TraceCategory::kFault, "flap", trace_track_, start, end);
    flap_cursor_ = end;
  }
}

bool LinkFaultInjector::Overlaps(const std::vector<OutageWindow>& windows,
                                 TimePoint start, TimePoint end) {
  // First window whose `from` is at or past `end`; only its predecessor can overlap.
  auto it = std::upper_bound(
      windows.begin(), windows.end(), end,
      [](TimePoint t, const OutageWindow& w) { return t <= w.from; });
  if (it == windows.begin()) {
    return false;
  }
  --it;
  return it->until > start;
}

TimePoint LinkFaultInjector::OutageEndAfter(TimePoint t) {
  TimePoint end = t;
  for (const std::vector<OutageWindow>* windows : {&plan_.scripted_outages, &generated_}) {
    for (const OutageWindow& w : *windows) {
      if (w.from <= t && t < w.until) {
        end = std::max(end, w.until);
      }
    }
  }
  return end;
}

bool LinkFaultInjector::InOutage(TimePoint t) {
  GenerateFlapsThrough(t);
  return Overlaps(plan_.scripted_outages, t, t + Duration::Micros(1)) ||
         Overlaps(generated_, t, t + Duration::Micros(1));
}

LinkFaultInjector::Fate LinkFaultInjector::Classify(TimePoint start, TimePoint end) {
  GenerateFlapsThrough(end);
  if (Overlaps(plan_.scripted_outages, start, end) || Overlaps(generated_, start, end)) {
    ++outage_drops_;
    return Fate::kOutage;
  }
  if (plan_.corruption_rate > 0.0 && rng_.NextBool(plan_.corruption_rate)) {
    ++frames_corrupted_;
    return Fate::kCorrupted;
  }
  if (plan_.loss_rate > 0.0 && rng_.NextBool(plan_.loss_rate)) {
    ++frames_lost_;
    return Fate::kLost;
  }
  // Gilbert–Elliott burst loss: decide the frame's fate in the current state, then step
  // the chain. Draws come from the dedicated WAN stream so enabling burst loss never
  // perturbs the Bernoulli loss/corruption fates above.
  if (plan_.wan.HasGilbertElliott()) {
    ++ge_steps_;
    double loss_p = ge_bad_ ? plan_.wan.ge_loss_bad : plan_.wan.ge_loss_good;
    if (ge_bad_) {
      ++ge_bad_steps_;
    }
    bool lost = loss_p > 0.0 && wan_rng_.NextBool(loss_p);
    double flip_p = ge_bad_ ? plan_.wan.ge_p_bad_to_good : plan_.wan.ge_p_good_to_bad;
    if (flip_p > 0.0 && wan_rng_.NextBool(flip_p)) {
      ge_bad_ = !ge_bad_;
    }
    if (lost) {
      ++frames_lost_;
      ++burst_losses_;
      return Fate::kLost;
    }
  }
  return Fate::kDelivered;
}

Duration LinkFaultInjector::WanFrameExtra() {
  Duration extra = plan_.wan.extra_delay;
  if (plan_.wan.jitter > Duration::Zero()) {
    extra += plan_.wan.jitter * wan_rng_.NextDouble();
  }
  return extra;
}

Duration LinkFaultInjector::WanInputExtra() {
  Duration extra = plan_.wan.extra_delay;
  if (plan_.wan.jitter > Duration::Zero()) {
    extra += plan_.wan.jitter * wan_input_rng_.NextDouble();
  }
  return extra;
}

Duration LinkFaultInjector::InputDelayPenalty(TimePoint now, Duration retry_interval,
                                              Duration* retransmit_out,
                                              Duration* outage_out) {
  Duration outage = Duration::Zero();
  if (InOutage(now)) {
    // The keystroke (and every retry) is pinned behind the outage window.
    outage = OutageEndAfter(now) - now;
  }
  Duration retransmit = Duration::Zero();
  double p = std::min(0.95, plan_.loss_rate + plan_.corruption_rate);
  if (p > 0.0) {
    Duration interval = std::max(Duration::Micros(1), retry_interval);
    Duration cap = interval * 8;
    int tries = 0;
    while (tries < 16 && input_rng_.NextBool(p)) {
      ++input_frames_lost_;
      retransmit += interval;
      interval = std::min(interval * 2, cap);
      ++tries;
    }
  }
  if (retransmit_out != nullptr) {
    *retransmit_out = retransmit;
  }
  if (outage_out != nullptr) {
    *outage_out = outage;
  }
  return outage + retransmit;
}

Duration LinkFaultInjector::OutageTimeBefore(TimePoint end) {
  GenerateFlapsThrough(end);
  Duration total = Duration::Zero();
  for (const std::vector<OutageWindow>* windows : {&plan_.scripted_outages, &generated_}) {
    for (const OutageWindow& w : *windows) {
      if (w.from >= end) {
        break;
      }
      total += std::min(w.until, end) - w.from;
    }
  }
  return total;
}

DiskFaultInjector::DiskFaultInjector(DiskFaultPlan plan, uint64_t seed)
    : plan_(plan), rng_(seed) {}

Duration DiskFaultInjector::Perturb(Duration service) {
  ++requests_;
  Duration extra = Duration::Zero();
  if (plan_.stall_rate > 0.0 && rng_.NextBool(plan_.stall_rate)) {
    ++stalls_;
    extra += kDiskStall;
  }
  if (plan_.error_rate > 0.0) {
    // Transient errors retry after a recovery delay and re-pay the full service time;
    // three consecutive failures give up on injecting more (the request still completes).
    int attempts = 0;
    while (attempts < 3 && rng_.NextBool(plan_.error_rate)) {
      ++io_errors_;
      extra += kErrorRetry + service;
      ++attempts;
    }
  }
  return extra;
}

}  // namespace tcs
