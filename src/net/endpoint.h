// Message-to-packet framing.
//
// Protocol messages are carried over a byte-stream transport; on the wire they are split
// into MTU-bounded frames, each paying the configured header overhead. MessageSender does
// the segmentation arithmetic the paper's VIP table depends on (packet counts x header
// bytes) and drives the Link for timing.

#ifndef TCS_SRC_NET_ENDPOINT_H_
#define TCS_SRC_NET_ENDPOINT_H_

#include <cstdint>

#include "src/net/headers.h"
#include "src/net/link.h"

namespace tcs {

class MessageSender {
 public:
  // `transport` may be a raw Link or a ReliableChannel layered on one. Throws
  // tcs::ConfigError when the transport's MTU cannot fit the counted per-packet headers.
  MessageSender(FrameTransport& transport, HeaderModel headers);

  // Sends a protocol message of `payload` bytes. It is segmented into as many frames as
  // the MTU requires; `delivered` (optional) fires when the last frame arrives.
  void SendMessage(Bytes payload, InlineCallback delivered = nullptr);

  int64_t messages_sent() const { return messages_sent_; }
  int64_t packets_sent() const { return packets_sent_; }
  Bytes payload_bytes() const { return payload_bytes_; }
  // Payload plus counted (tcpdump-visible: TCP+IP) header bytes.
  Bytes counted_bytes() const { return counted_bytes_; }
  const HeaderModel& headers() const { return headers_; }

  // Number of MTU-bounded packets a payload of this size occupies.
  int64_t PacketsFor(Bytes payload) const;

 private:
  FrameTransport& link_;
  HeaderModel headers_;
  int64_t messages_sent_ = 0;
  int64_t packets_sent_ = 0;
  Bytes payload_bytes_ = Bytes::Zero();
  Bytes counted_bytes_ = Bytes::Zero();
};

}  // namespace tcs

#endif  // TCS_SRC_NET_ENDPOINT_H_
