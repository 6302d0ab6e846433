#include "src/net/reliable.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/util/config_error.h"

namespace tcs {

ReliableChannelConfig Validated(ReliableChannelConfig config) {
  if (!(config.min_rto > Duration::Zero())) {
    throw ConfigError("ReliableChannelConfig.min_rto", "min RTO must be positive");
  }
  if (config.max_rto < config.min_rto) {
    throw ConfigError("ReliableChannelConfig.max_rto", "max RTO must be >= min RTO");
  }
  if (config.max_attempts < 1) {
    throw ConfigError("ReliableChannelConfig.max_attempts", "need at least one attempt");
  }
  if (config.ack_bytes.count() <= 0) {
    throw ConfigError("ReliableChannelConfig.ack_bytes", "ACK bytes must be positive");
  }
  if (config.window_frames < 0) {
    throw ConfigError("ReliableChannelConfig.window_frames",
                      "window bound cannot be negative (0 disables it)");
  }
  return config;
}

ReliableChannel::ReliableChannel(Simulator& sim, Link& link, ReliableChannelConfig config)
    : sim_(sim), link_(link), config_(Validated(config)) {}

void ReliableChannel::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    trace_track_ = tracer_->RegisterTrack("net", "reliable");
  }
}

Duration ReliableChannel::CurrentRtoBase() const {
  if (srtt_.IsZero()) {
    return config_.min_rto;
  }
  return std::clamp(srtt_ * 2, config_.min_rto, config_.max_rto);
}

void ReliableChannel::Send(Bytes wire_bytes, InlineCallback delivered,
                           ResumeKey delivered_key) {
  if (config_.window_frames > 0 &&
      static_cast<int64_t>(records_.size()) >= config_.window_frames) {
    // Window full: shed at the door. The frame gets no sequence number and its callback
    // never fires — exactly like an abandoned frame, but without ever burdening the wire.
    ++frames_shed_;
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceCategory::kNet, "frame-shed", trace_track_, sim_.Now(),
                       "in_flight", static_cast<int64_t>(records_.size()));
    }
    if (recorder_ != nullptr) {
      recorder_->Instant(TraceCategory::kNet, "frame-shed", sim_.Now(), 0,
                         static_cast<int64_t>(records_.size()), wire_bytes.count());
    }
    return;
  }
  uint64_t seq = next_seq_++;
  Record& rec = records_[seq];
  rec.bytes = wire_bytes;
  rec.delivered = std::move(delivered);
  rec.delivered_key = delivered_key;
  rec.rto = CurrentRtoBase();
  ++frames_sent_;
  Transmit(seq);
}

void ReliableChannel::PruneStale(std::vector<PendingFate>& list, size_t& bound) {
  if (list.size() < bound) {
    return;
  }
  list.erase(std::remove_if(list.begin(), list.end(),
                            [this](const PendingFate& p) {
                              return !sim_.IsPending(p.ev);
                            }),
             list.end());
  bound = std::max<size_t>(64, list.size() * 2);
}

void ReliableChannel::Transmit(uint64_t seq) {
  Record& rec = records_[seq];
  ++rec.attempts;
  if (rec.attempts > 1) {
    ++retransmissions_;
    rec.ever_retransmitted = true;
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceCategory::kNet, "retransmit", trace_track_, sim_.Now(), "seq",
                       static_cast<int64_t>(seq), "attempt", rec.attempts);
    }
    if (recorder_ != nullptr) {
      recorder_->Instant(TraceCategory::kNet, "retransmit", sim_.Now(), 0,
                         static_cast<int64_t>(seq), rec.attempts);
    }
  }
  TimePoint sent_at = sim_.Now();
  rec.sent_at = sent_at;
  // Arm the retransmission timer before the frame leaves: the timeout covers queueing,
  // serialization, propagation, and the (out-of-band) ACK's return.
  rec.timer = sim_.Schedule(rec.rto, [this, seq] { OnTimeout(seq); });
  Link::FateHandle fate = link_.SendEx(
      rec.bytes, [this, seq, sent_at](bool ok) { OnOutcome(seq, sent_at, ok); },
      /*retransmit=*/rec.attempts > 1);
  // Track the pending fate report for checkpointing; a retransmission's stale
  // predecessor stays tracked too (its event is still in the queue and must restore).
  PruneStale(fates_, prune_fates_at_);
  fates_.push_back(PendingFate{fate.ev, seq, sent_at, fate.ok});
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
  Duration ack_delay =
      TransmissionDelay(config_.ack_bytes, link_.UpRate()) + link_.config().propagation;
  EventId ack_ev = sim_.Schedule(ack_delay, [this, seq, sent_at, clean_sample] {
    OnAck(seq, sent_at, clean_sample);
  });
  PruneStale(acks_, prune_acks_at_);
  acks_.push_back(PendingFate{ack_ev, seq, sent_at, clean_sample});
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
  if (rec.attempts >= config_.max_attempts) {
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
  rec.rto = std::min(rec.rto * 2, config_.max_rto);  // exponential backoff, capped
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

void ReliableChannel::SavePendingList(SnapshotWriter& w,
                                      const std::vector<PendingFate>& list) const {
  uint64_t live = 0;
  for (const PendingFate& p : list) {
    if (sim_.IsPending(p.ev)) {
      ++live;
    }
  }
  w.U64(live);
  for (const PendingFate& p : list) {
    uint64_t ev_seq = 0;
    TimePoint when;
    if (!sim_.PendingInfo(p.ev, &ev_seq, &when)) {
      continue;
    }
    w.U64(ev_seq);
    w.Time(when);
    w.U64(p.seq);
    w.Time(p.sent_at);
    w.Bool(p.flag);
  }
}

void ReliableChannel::SaveTo(SnapshotWriter& w) const {
  w.U64(next_seq_);
  w.U64(next_release_);
  w.Dur(srtt_);
  w.I64(frames_sent_);
  w.I64(retransmissions_);
  w.I64(acks_received_);
  w.I64(frames_delivered_);
  w.I64(frames_abandoned_);
  w.I64(frames_shed_);
  w.U64(records_.size());
  for (const auto& [seq, rec] : records_) {
    w.U64(seq);
    w.I64(rec.bytes.count());
    bool wants_release = !rec.released && static_cast<bool>(rec.delivered);
    if (wants_release && rec.delivered_key.empty()) {
      throw SnapshotError("reliable.record",
                          "in-flight frame wants a delivery notification but carries no "
                          "ResumeKey; attach one at the Send site to make this workload "
                          "checkpointable");
    }
    w.Bool(wants_release);
    rec.delivered_key.SaveTo(w);
    w.I64(rec.attempts);
    w.Dur(rec.rto);
    w.Time(rec.sent_at);
    w.Bool(rec.ever_retransmitted);
    w.Bool(rec.acked);
    w.Bool(rec.arrived);
    w.Bool(rec.released);
    bool has_timer = rec.timer.IsValid();
    w.Bool(has_timer);
    if (has_timer) {
      uint64_t ev_seq = 0;
      TimePoint when;
      if (!sim_.PendingInfo(rec.timer, &ev_seq, &when)) {
        throw SnapshotError("reliable.record", "retransmit timer record is stale");
      }
      w.U64(ev_seq);
      w.Time(when);
    }
  }
  SavePendingList(w, fates_);
  SavePendingList(w, acks_);
}

void ReliableChannel::LoadFrom(SnapshotReader& r, EventRearm& plan) {
  next_seq_ = r.U64();
  next_release_ = r.U64();
  srtt_ = r.Dur();
  frames_sent_ = r.I64();
  retransmissions_ = r.I64();
  acks_received_ = r.I64();
  frames_delivered_ = r.I64();
  frames_abandoned_ = r.I64();
  frames_shed_ = r.I64();
  records_.clear();
  uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t seq = r.U64();
    Record& rec = records_[seq];
    rec.bytes = Bytes::Of(r.I64());
    bool wants_release = r.Bool();
    rec.delivered_key = ResumeKey::LoadFrom(r);
    rec.attempts = static_cast<int>(r.I64());
    rec.rto = r.Dur();
    rec.sent_at = r.Time();
    rec.ever_retransmitted = r.Bool();
    rec.acked = r.Bool();
    rec.arrived = r.Bool();
    rec.released = r.Bool();
    if (wants_release) {
      rec.delivered = plan.Build(rec.delivered_key);
    }
    if (r.Bool()) {
      uint64_t ev_seq = r.U64();
      TimePoint when = r.Time();
      plan.Schedule("reliable.rto", ev_seq, when, [this, seq] { OnTimeout(seq); },
                    &rec.timer);
    }
  }
  fates_.clear();
  uint64_t fates = r.U64();
  fates_.reserve(fates);  // EventId out-pointers below must stay stable
  for (uint64_t i = 0; i < fates; ++i) {
    uint64_t ev_seq = r.U64();
    TimePoint when = r.Time();
    uint64_t seq = r.U64();
    TimePoint sent_at = r.Time();
    bool ok = r.Bool();
    fates_.push_back(PendingFate{EventId(), seq, sent_at, ok});
    plan.Schedule("reliable.fate", ev_seq, when,
                  [this, seq, sent_at, ok] { OnOutcome(seq, sent_at, ok); },
                  &fates_.back().ev);
  }
  prune_fates_at_ = std::max<size_t>(64, fates_.size() * 2);
  acks_.clear();
  uint64_t acks = r.U64();
  acks_.reserve(acks);
  for (uint64_t i = 0; i < acks; ++i) {
    uint64_t ev_seq = r.U64();
    TimePoint when = r.Time();
    uint64_t seq = r.U64();
    TimePoint sent_at = r.Time();
    bool clean = r.Bool();
    acks_.push_back(PendingFate{EventId(), seq, sent_at, clean});
    plan.Schedule("reliable.ack", ev_seq, when,
                  [this, seq, sent_at, clean] { OnAck(seq, sent_at, clean); },
                  &acks_.back().ev);
  }
  prune_acks_at_ = std::max<size_t>(64, acks_.size() * 2);
}

}  // namespace tcs
