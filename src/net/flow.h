// Per-session flow accounting over a shared FrameTransport.
//
// The paper's network axis is *sessions sharing one Ethernet*: every logged-in user's
// protocol streams contend for the same 10 Mbps segment. A SessionFlow is the per-session
// tap on that shared medium — a FrameTransport decorator that forwards frames unchanged
// to the underlying transport (the raw Link, or the ReliableChannel recovering its
// losses) while accounting how much of the shared wire this one session consumed.
//
// The accounting is passive: a SessionFlow adds no delay, no queue, and consumes no
// random stream, so a single session over a SessionFlow is byte-identical to the same
// session talking to the shared transport directly. That property is what lets the
// multi-user consolidation engine be a strict generalization of the single-session
// experiments (the N=1 differential test).
//
// A send's delivery action is one callback: count the delivery on this flow, then run
// the caller's callback if there is one. Without one it captures a single pointer, so
// it stays in the event queue's inline buffer; the transport schedules it as the
// delivery event itself (a lost frame's event is the transport's no-op instead).

#ifndef TCS_SRC_NET_FLOW_H_
#define TCS_SRC_NET_FLOW_H_

#include <cstdint>
#include <utility>

#include "src/net/link.h"

namespace tcs {

class SessionFlow : public FrameTransport {
 public:
  explicit SessionFlow(FrameTransport& shared) : shared_(shared) {}

  SessionFlow(const SessionFlow&) = delete;
  SessionFlow& operator=(const SessionFlow&) = delete;

  void Send(Bytes wire_bytes, InlineCallback delivered = nullptr) override {
    ++sends_;
    wire_bytes_ += wire_bytes.count();
    if (!delivered) {
      shared_.Send(wire_bytes, [count = &delivered_] { ++*count; });
      return;
    }
    shared_.Send(wire_bytes, [count = &delivered_, cb = std::move(delivered)]() mutable {
      ++*count;
      cb();
    });
  }

  const LinkConfig& config() const override { return shared_.config(); }

  // Sends this session pushed onto the shared medium (a send may fragment into several
  // wire frames; fragmentation happens below, in the Link).
  int64_t sends() const { return sends_; }
  // Sends whose last bit reached the far end.
  int64_t delivered() const { return delivered_; }
  // Wire bytes this session offered (payload + headers + any retransmissions the
  // reliable layer adds are accounted where they are generated, not here).
  Bytes wire_bytes() const { return Bytes::Of(wire_bytes_); }

  // This session's share of `total`: its offered wire bytes over the total carried.
  double ShareOf(Bytes total) const {
    return total.count() > 0
               ? static_cast<double>(wire_bytes_) / static_cast<double>(total.count())
               : 0.0;
  }

 private:
  FrameTransport& shared_;
  int64_t sends_ = 0;
  int64_t delivered_ = 0;
  int64_t wire_bytes_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_NET_FLOW_H_
