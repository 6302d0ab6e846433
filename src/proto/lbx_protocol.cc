#include "src/proto/lbx_protocol.h"

#include "src/util/lz.h"

namespace tcs {

namespace {

constexpr uint8_t kEventClass = 0xFE;
constexpr uint8_t kReplyClass = 0xFD;
constexpr size_t kDictLimit = 2048;  // rolling history per stream class
// Proxy framing overhead per LBX message.
constexpr Bytes kMessageHeader = Bytes::Of(4);
// Probability that a round-trip reply is answered from the proxy cache (never reaching
// the wire).
constexpr double kReplyShortCircuit = 0.3;
// Requests accumulate until this many raw bytes are pending, then go out as one LBX
// message (the proxy's small-packet avoidance). Finer than Xlib's batching, which is why
// LBX sends more, smaller display messages than X.
constexpr Bytes kCoalesceBelow = Bytes::Of(128);

}  // namespace

LbxProtocol::LbxProtocol(Simulator& sim, MessageSender& display_out,
                         MessageSender& input_out, ProtoTap* tap, Rng rng)
    : XProtocol(sim, display_out, input_out, tap, rng) {}

Bytes LbxProtocol::session_setup_bytes() const {
  return XProtocol::session_setup_bytes() + Bytes::Of(1024);
}

void LbxProtocol::EmitCompressed(Channel channel, uint8_t stream_class,
                                 const std::vector<uint8_t>& raw) {
  // Approximate stream compression: the compressed cost of `raw` is the marginal cost of
  // appending it to the class's recent history.
  std::vector<uint8_t>& dict = dict_[stream_class];
  size_t history = dict.size();
  dict.insert(dict.end(), raw.begin(), raw.end());
  LzCodec::Sizes sizes = LzCodec::CompressedSizes(dict, history);
  size_t marginal = sizes.whole > sizes.prefix ? sizes.whole - sizes.prefix : 1;

  // Roll the history forward, bounded.
  if (dict.size() > kDictLimit) {
    dict.erase(dict.begin(), dict.end() - static_cast<ptrdiff_t>(kDictLimit));
  }

  Bytes payload = Bytes::Of(static_cast<int64_t>(marginal)) + kMessageHeader;
  // The proxy adds a (small) recompression cost at the server.
  ChargeEncode(Duration::Micros(3 + static_cast<int64_t>(raw.size()) / 100));
  EmitMessage(channel, payload);
}

void LbxProtocol::OnRequest(std::vector<uint8_t> request) {
  // Tiny requests ride along with the next one; everything else goes out per-request.
  uint8_t stream_class = request.empty() ? 0 : request[0];
  coalesce_buffer_.insert(coalesce_buffer_.end(), request.begin(), request.end());
  if (Bytes::Of(static_cast<int64_t>(coalesce_buffer_.size())) < kCoalesceBelow) {
    return;
  }
  EmitCompressed(Channel::kDisplay, stream_class, coalesce_buffer_);
  coalesce_buffer_.clear();
}

void LbxProtocol::OnEvent(std::vector<uint8_t> event) {
  // Delta-encode against the previous event: identical fields become zero runs that the
  // codec collapses.
  std::vector<uint8_t> delta(event.size());
  for (size_t i = 0; i < event.size(); ++i) {
    uint8_t prev = i < prev_event_.size() ? prev_event_[i] : 0;
    delta[i] = event[i] ^ prev;
  }
  prev_event_ = std::move(event);
  EmitCompressed(Channel::kInput, kEventClass, delta);
}

void LbxProtocol::OnReply(std::vector<uint8_t> reply) {
  if (rng().NextBool(kReplyShortCircuit)) {
    return;  // answered from the proxy's cache; nothing crosses the wire
  }
  EmitCompressed(Channel::kInput, kReplyClass, reply);
}

void LbxProtocol::Flush() {
  XProtocol::Flush();  // no-op for LBX (requests bypass the Xlib buffer); kept for contract
  if (!coalesce_buffer_.empty()) {
    uint8_t stream_class = coalesce_buffer_[0];
    EmitCompressed(Channel::kDisplay, stream_class, coalesce_buffer_);
    coalesce_buffer_.clear();
  }
}

}  // namespace tcs
