#include "src/net/link.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/obs/flight_recorder.h"

namespace tcs {

namespace {

// The testbed's shared 10 Mbps Ethernet; its carried load is bucketed per second.
constexpr BitsPerSecond kRate = BitsPerSecond::Mbps(10);
constexpr Duration kLoadBucket = Duration::Seconds(1);
// CSMA/CD backoff slot: 512 bit times at 10 Mbps.
constexpr Duration kBackoffSlot = Duration::Micros(51);

}  // namespace

Link::Link(Simulator& sim, LinkConfig config)
    : sim_(sim), csma_cd_(config.csma_cd), rng_(config.seed), load_(kLoadBucket) {}

Duration Link::ContentionDelay(TimePoint start) {
  if (!csma_cd_) {
    return Duration::Zero();
  }
  // Half-duplex shared medium: other stations contend in proportion to how busy the
  // segment has recently been. Each collision costs a jam plus a short truncated binary
  // exponential backoff. Calibration note: the expected per-frame penalty must stay a
  // small percentage of the frame's service time, or the link's effective capacity
  // collapses — real 10 Mbps Ethernet sustained ~97% goodput under a single bulk talker,
  // while collisions roughly doubled near-saturation queueing delay (the paper's 55 ms
  // at 9.6 Mbps vs ~28 ms for a pure FIFO model).
  Duration total = Duration::Zero();
  double p = std::min(0.15, 0.3 * recent_utilization_ * recent_utilization_);
  int attempt = 0;
  while (attempt < 6 && rng_.NextBool(p)) {
    ++collisions_;
    ++attempt;
    int window = 1 << std::min(attempt, 2);  // backoff window, truncated at 4 slots
    int64_t slots = static_cast<int64_t>(rng_.NextBelow(static_cast<uint64_t>(window)));
    total += kBackoffSlot * (slots + 1);
  }
  (void)start;
  return total;
}

bool Link::TransmitFrame(Bytes frame_bytes, TimePoint* delivery) {
  TimePoint now = sim_.Now();
  // Update the smoothed utilization estimate with the gap since the previous send: the
  // fraction of that gap during which the medium was transmitting.
  if (now > last_send_) {
    Duration gap = now - last_send_;
    Duration busy_in_gap = std::min(gap, std::max(Duration::Zero(), busy_until_ - last_send_));
    double sample = busy_in_gap / gap;
    recent_utilization_ = 0.9 * recent_utilization_ + 0.1 * sample;
    last_send_ = now;
  } else {
    // Back-to-back sends at one instant: the medium is clearly contended.
    recent_utilization_ = 0.95 * recent_utilization_ + 0.05;
  }

  const bool wan = fault_ != nullptr && fault_->wan_active();
  const BitsPerSecond rate = wan ? DownRate() : kRate;
  if (wan && fault_->wan().queue_bytes.count() > 0) {
    // Bounded bufferbloat queue with drop-tail overflow: a frame arriving to a backlog
    // already over the bound never occupies the wire. Its would-be delivery time is
    // still computed (and the jitter stream still consumes one draw) so event schedules
    // and random streams stay independent of the drop decision.
    Bytes backlog = BacklogBytesAt(now);
    if (backlog > fault_->wan().queue_bytes) {
      ++frames_sent_;
      ++frames_lost_;
      ++wan_queue_drops_;
      Duration extra = fault_->WanFrameExtra();
      last_wan_extra_ = extra;
      last_wan_jitter_ = extra - fault_->wan().extra_delay;
      *delivery = std::max(now, busy_until_) + TransmissionDelay(frame_bytes, rate) +
                  kPropagation + extra;
      emit_.Instant(TraceCategory::kNet, "frame-dropped", trace_track_, now,
                    {"bytes", frame_bytes.count()}, {"backlog", backlog.count()});
      return false;
    }
  }
  TimePoint start = std::max(now, busy_until_);
  Duration backoff = ContentionDelay(start);
  backoff_total_ += backoff;
  start += backoff;
  Duration serialization = TransmissionDelay(frame_bytes, rate);
  busy_until_ = start + serialization;
  if (wire_ledger_enabled_) {
    // Prune slots whose occupancy already ended, then record this frame's. Pure
    // bookkeeping: no events, no randomness, no behavioural coupling.
    const int64_t now_us = now.ToMicros();
    while (!wire_slots_.empty() && wire_slots_.front().end_us <= now_us) {
      wire_slots_.pop_front();
    }
    wire_slots_.push_back(
        {start.ToMicros(), busy_until_.ToMicros(), sending_retransmit_});
  }
  queue_delay_.Add((start - now).ToMillisF());
  ++frames_sent_;
  bytes_carried_ += frame_bytes;
  load_.AddSpread(start, busy_until_, static_cast<double>(frame_bytes.count()));
  // Fate: a faulted frame still occupies the wire (the sender transmitted it), but
  // never arrives. The healthy path is a single null check.
  bool ok = true;
  if (fault_ != nullptr) {
    ok = fault_->Classify(start, busy_until_) == LinkFaultInjector::Fate::kDelivered;
  }
  if (ok) {
    ++frames_delivered_;
  } else {
    ++frames_lost_;
  }
  emit_.Span(TraceCategory::kNet, ok ? "frame" : "frame-lost", trace_track_, start,
             busy_until_, {"bytes", frame_bytes.count()},
             {"queue_us", (start - now).ToMicros()});
  *delivery = busy_until_ + kPropagation;
  if (wan) {
    // WAN transit: the profile's extra one-way delay plus per-frame jitter rides on top
    // of the LAN propagation (lost frames pay it too — their would-be delivery time
    // anchors retransmission timing).
    Duration extra = fault_->WanFrameExtra();
    last_wan_extra_ = extra;
    last_wan_jitter_ = extra - fault_->wan().extra_delay;
    *delivery += extra;
  }
  return ok;
}

bool Link::TransmitAll(Bytes wire_bytes, TimePoint* delivery) {
  assert(wire_bytes.count() > 0);
  const int64_t max_frame = (kMtu + kEthernetFraming).count();
  bool all_ok = true;
  int64_t remaining = wire_bytes.count();
  while (remaining > 0) {
    Bytes chunk = Bytes::Of(std::min(remaining, max_frame));
    remaining -= chunk.count();
    bool ok = TransmitFrame(chunk, delivery);
    all_ok = all_ok && ok;
  }
  return all_ok;
}

void Link::SendEx(Bytes wire_bytes, InlineFunction<void(bool)> done, bool retransmit) {
  sending_retransmit_ = retransmit;
  TimePoint delivery = TimePoint::Zero();
  bool all_ok = TransmitAll(wire_bytes, &delivery);
  sending_retransmit_ = false;
  if (done) {
    sim_.At(delivery, [cb = std::move(done), all_ok]() mutable { cb(all_ok); });
  }
}

void Link::Send(Bytes wire_bytes, InlineCallback delivered) {
  TimePoint delivery = TimePoint::Zero();
  bool all_ok = TransmitAll(wire_bytes, &delivery);
  if (!delivered) {
    return;
  }
  // A send that wants a delivery notification schedules exactly one event at the
  // delivery time — even when the frame was lost (the event is then a no-op). Lost and
  // delivered frames thus execute identical event schedules, which keeps the
  // events_executed counter (and the golden corpus that records it) fate-independent.
  // A delivered frame's callback is the event itself, unwrapped.
  if (all_ok) {
    sim_.At(delivery, std::move(delivered));
  } else {
    sim_.At(delivery, [] {});
  }
}

int64_t Link::PendingRetransmitWireUs(TimePoint now) {
  if (!wire_ledger_enabled_ || wire_slots_.empty()) {
    return 0;
  }
  const int64_t now_us = now.ToMicros();
  while (!wire_slots_.empty() && wire_slots_.front().end_us <= now_us) {
    wire_slots_.pop_front();
  }
  int64_t total = 0;
  for (const WireSlot& slot : wire_slots_) {
    if (slot.retransmit) {
      total += slot.end_us - std::max(now_us, slot.start_us);
    }
  }
  return total;
}

Bytes Link::BacklogBytesAt(TimePoint now) const {
  if (busy_until_ <= now) {
    return Bytes::Zero();
  }
  double seconds = (busy_until_ - now).ToSecondsF();
  double bits = seconds * static_cast<double>(DownRate().bps());
  return Bytes::Of(static_cast<int64_t>(bits / 8.0));
}

BitsPerSecond Link::DownRate() const {
  if (fault_ != nullptr && fault_->wan_active() && fault_->wan().down_rate.bps() > 0) {
    return fault_->wan().down_rate;
  }
  return kRate;
}

BitsPerSecond Link::UpRate() const {
  if (fault_ != nullptr && fault_->wan_active() && fault_->wan().up_rate.bps() > 0) {
    return fault_->wan().up_rate;
  }
  return kRate;
}

void Link::Attach(Emitter emit) {
  emit_ = emit;
  trace_track_ = emit_.Track("net", "link");
}

double Link::UtilizationOver(Duration window) const {
  if (window.IsZero()) {
    return 0.0;
  }
  double carried_bits = static_cast<double>(bytes_carried_.count()) * 8.0;
  double capacity_bits = static_cast<double>(kRate.bps()) * window.ToSecondsF();
  return carried_bits / capacity_bits;
}

}  // namespace tcs
