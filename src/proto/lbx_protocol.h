// Low Bandwidth X (LBX, Fulton & Kantarjiev 1993) — a proxy pair living on both ends of
// an X connection that compresses the X byte stream (§2).
//
// Modelled as a subclass of XProtocol that intercepts the per-request / per-event /
// per-reply byte streams before framing:
//  * each display request is individually compressed (real LzCodec) and sent as its own
//    LBX message (4-byte proxy header + compressed body) — hence the paper's observation
//    that LBX moves fewer bytes than X but ~80% MORE display messages;
//  * input events are delta-compressed against the previous event;
//  * a fraction of round-trip replies is short-circuited entirely by the proxy's cache of
//    connection properties.

#ifndef TCS_SRC_PROTO_LBX_PROTOCOL_H_
#define TCS_SRC_PROTO_LBX_PROTOCOL_H_

#include <unordered_map>
#include <vector>

#include "src/proto/x_protocol.h"

namespace tcs {

class LbxProtocol final : public XProtocol {
 public:
  LbxProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
              ProtoTap* tap, Rng rng);

  std::string name() const override { return "LBX"; }
  // LBX rides on the X session handshake plus its own proxy negotiation.
  Bytes session_setup_bytes() const override;

  void Flush() override;

 protected:
  void OnRequest(std::vector<uint8_t> request) override;
  void OnEvent(std::vector<uint8_t> event) override;
  void OnReply(std::vector<uint8_t> reply) override;

 private:
  // Compresses `raw` against the rolling dictionary for `stream_class` (first byte of the
  // request, or a synthetic class id for events/replies) — the per-class previous message
  // serves as shared LZ history, approximating the real proxy's stream compressor.
  void EmitCompressed(Channel channel, uint8_t stream_class, const std::vector<uint8_t>& raw);

  std::vector<uint8_t> coalesce_buffer_;
  std::vector<uint8_t> prev_event_;
  std::unordered_map<uint8_t, std::vector<uint8_t>> dict_;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_LBX_PROTOCOL_H_
