#include "src/net/ping.h"

namespace tcs {

namespace {

constexpr Bytes kPacketSize = Bytes::Of(64);  // wire size of echo request and reply
constexpr Duration kInterval = Duration::Millis(100);

}  // namespace

Ping::Ping(Simulator& sim, Link& link) : sim_(sim), link_(link) {}

void Ping::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  SendOne();
}

void Ping::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  sim_.Cancel(pending_);
  pending_ = EventId();
}

void Ping::SendOne() {
  ++sent_;
  TimePoint sent_at = sim_.Now();
  // Echo request out; on arrival the responder immediately transmits the reply through the
  // same shared medium; RTT measured at reply arrival.
  link_.Send(kPacketSize, [this, sent_at] {
    link_.Send(kPacketSize, [this, sent_at] {
      ++received_;
      rtt_ms_.Add((sim_.Now() - sent_at).ToMillisF());
    });
  });
  pending_ = sim_.Schedule(kInterval, [this] { SendOne(); });
}

}  // namespace tcs
