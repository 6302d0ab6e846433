#include "src/net/reliable.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/flight_recorder.h"

namespace tcs {

namespace {

// Floor and cap of the retransmission timeout. Era TCP stacks ran 200-500 ms
// retransmit timer granularity, so a single loss cost an interactive session a humanly
// visible stall.
constexpr Duration kMinRto = Duration::Millis(200);
constexpr Duration kMaxRto = Duration::Seconds(2);
// The return ACK: a minimum Ethernet frame.
constexpr Bytes kAckBytes = Bytes::Of(64);
// Safety valve against pathological plans (e.g. loss_rate=1.0 forever): after this many
// attempts a frame is abandoned and counted, so bounded-horizon runs always drain.
constexpr int kMaxAttempts = 24;
// Bound on frames in flight, far above anything an interactive session queues on a
// healthy link.
constexpr int64_t kWindowFrames = 4096;

}  // namespace

ReliableChannel::ReliableChannel(Simulator& sim, Link& link) : sim_(sim), link_(link) {}

double ReliableChannel::WindowFill() const {
  return static_cast<double>(records_.size()) / static_cast<double>(kWindowFrames);
}

void ReliableChannel::Attach(Emitter emit) {
  emit_ = emit;
  trace_track_ = emit_.Track("net", "reliable");
}

Duration ReliableChannel::CurrentRtoBase() const {
  if (srtt_.IsZero()) {
    return kMinRto;
  }
  return std::clamp(srtt_ * 2, kMinRto, kMaxRto);
}

void ReliableChannel::Send(Bytes wire_bytes, InlineCallback delivered) {
  if (static_cast<int64_t>(records_.size()) >= kWindowFrames) {
    // Window full: shed at the door. The frame gets no sequence number and its callback
    // never fires — exactly like an abandoned frame, but without ever burdening the wire.
    ++frames_shed_;
    emit_.Instant(TraceCategory::kNet, "frame-shed", trace_track_, sim_.Now(),
                  {"in_flight", static_cast<int64_t>(records_.size())},
                  {"bytes", wire_bytes.count()});
    return;
  }
  uint64_t seq = next_seq_++;
  Record& rec = records_[seq];
  rec.bytes = wire_bytes;
  rec.delivered = std::move(delivered);
  rec.rto = CurrentRtoBase();
  ++frames_sent_;
  Transmit(seq);
}

void ReliableChannel::Transmit(uint64_t seq) {
  Record& rec = records_[seq];
  ++rec.attempts;
  if (rec.attempts > 1) {
    ++retransmissions_;
    rec.ever_retransmitted = true;
    emit_.Instant(TraceCategory::kNet, "retransmit", trace_track_, sim_.Now(),
                  {"seq", static_cast<int64_t>(seq)}, {"attempt", rec.attempts});
  }
  TimePoint sent_at = sim_.Now();
  rec.sent_at = sent_at;
  // Arm the retransmission timer before the frame leaves: the timeout covers queueing,
  // serialization, propagation, and the (out-of-band) ACK's return.
  rec.timer = sim_.Schedule(rec.rto, [this, seq] { OnTimeout(seq); });
  link_.SendEx(
      rec.bytes, [this, seq, sent_at](bool ok) { OnOutcome(seq, sent_at, ok); },
      /*retransmit=*/rec.attempts > 1);
}

void ReliableChannel::OnOutcome(uint64_t seq, TimePoint sent_at, bool ok) {
  // Fires at the frame's (would-be) arrival time at the receiver.
  auto it = records_.find(seq);
  if (it == records_.end() || it->second.sent_at != sent_at) {
    return;  // a stale attempt's outcome (the frame was already retransmitted or retired)
  }
  Record& rec = it->second;
  if (!ok) {
    return;  // the sender learns of the loss only when the RTO fires
  }
  bool clean_sample = !rec.ever_retransmitted;  // Karn: retransmitted frames don't sample
  if (!rec.arrived) {
    rec.arrived = true;
    ReleaseInOrder();
  }
  // The ACK rides back out-of-band: serialization at the return-direction (up) link rate
  // plus propagation, but no queueing on the shared medium (see header comment). On an
  // asymmetric WAN profile the narrow uplink stretches the ACK's return leg.
  Duration ack_delay = TransmissionDelay(kAckBytes, link_.UpRate()) + kPropagation;
  sim_.Schedule(ack_delay, [this, seq, sent_at, clean_sample] {
    OnAck(seq, sent_at, clean_sample);
  });
}

void ReliableChannel::OnAck(uint64_t seq, TimePoint sent_at, bool was_clean_sample) {
  auto it = records_.find(seq);
  if (it == records_.end()) {
    return;
  }
  Record& rec = it->second;
  if (rec.acked) {
    return;  // duplicate ACK from an earlier attempt that also got through
  }
  rec.acked = true;
  ++acks_received_;
  if (rec.timer.IsValid()) {
    sim_.Cancel(rec.timer);
    rec.timer = EventId();
  }
  if (was_clean_sample) {
    Duration rtt = sim_.Now() - sent_at;
    srtt_ = srtt_.IsZero() ? rtt : srtt_ * 0.875 + rtt * 0.125;
  }
  MaybeErase(seq);
}

void ReliableChannel::OnTimeout(uint64_t seq) {
  auto it = records_.find(seq);
  if (it == records_.end() || it->second.acked) {
    return;
  }
  Record& rec = it->second;
  rec.timer = EventId();
  if (rec.attempts >= kMaxAttempts) {
    // Pathological plan escape hatch: stop retrying so bounded runs always drain.
    ++frames_abandoned_;
    rec.acked = true;
    if (!rec.arrived) {
      // Release the in-order stream past the hole; the frame is simply gone.
      rec.arrived = true;
      rec.released = true;  // but never invoke its delivery callback
      ReleaseInOrder();
    }
    MaybeErase(seq);
    return;
  }
  rec.rto = std::min(rec.rto * 2, kMaxRto);  // exponential backoff, capped
  Transmit(seq);
}

void ReliableChannel::ReleaseInOrder() {
  while (true) {
    auto it = records_.find(next_release_);
    if (it == records_.end()) {
      // next_release_ either hasn't been sent yet or was fully retired already.
      if (next_release_ >= next_seq_) {
        return;
      }
      ++next_release_;
      continue;
    }
    Record& rec = it->second;
    if (!rec.arrived) {
      return;  // head-of-line: everything behind this hole waits
    }
    if (!rec.released) {
      rec.released = true;
      ++frames_delivered_;
      if (rec.delivered) {
        auto cb = std::move(rec.delivered);
        cb();
        // The callback may have sent more frames; re-find to keep the iterator honest.
        it = records_.find(next_release_);
      }
    }
    ++next_release_;
    if (it != records_.end()) {
      MaybeErase(it->first);
    }
  }
}

void ReliableChannel::MaybeErase(uint64_t seq) {
  auto it = records_.find(seq);
  if (it == records_.end()) {
    return;
  }
  const Record& rec = it->second;
  if (rec.acked && rec.released && seq < next_release_) {
    records_.erase(it);
  }
}

}  // namespace tcs
