#include "src/net/endpoint.h"

#include <algorithm>
#include <utility>

#include "src/util/config_error.h"

namespace tcs {

MessageSender::MessageSender(FrameTransport& transport, HeaderModel headers)
    : link_(transport), headers_(headers) {
  if ((kMtu - headers_.CountedPerPacket()).count() <= 0) {
    throw ConfigError("HeaderModel", "MTU must exceed per-packet header overhead");
  }
}

int64_t MessageSender::PacketsFor(Bytes payload) const {
  Bytes max_payload = kMtu - headers_.CountedPerPacket();
  if (payload.count() <= 0) {
    return 1;  // a bare ACK/empty message still occupies a frame
  }
  return (payload.count() + max_payload.count() - 1) / max_payload.count();
}

void MessageSender::SendMessage(Bytes payload, InlineCallback delivered) {
  int64_t packets = PacketsFor(payload);
  ++messages_sent_;
  packets_sent_ += packets;
  payload_bytes_ += payload;
  counted_bytes_ += payload + headers_.CountedPerPacket() * packets;

  Bytes max_payload = kMtu - headers_.CountedPerPacket();
  Bytes remaining = payload;
  for (int64_t i = 0; i < packets; ++i) {
    Bytes chunk = std::min(remaining, max_payload);
    if (chunk.count() <= 0) {
      chunk = Bytes::Zero();
    }
    Bytes wire = chunk + headers_.WirePerPacket();
    remaining -= chunk;
    bool last = i + 1 == packets;
    link_.Send(wire, last ? std::move(delivered) : nullptr);
  }
}

}  // namespace tcs
