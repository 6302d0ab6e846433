#include "src/proto/lbx_protocol.h"

#include "src/util/lz.h"

namespace tcs {

namespace {

constexpr uint8_t kEventClass = 0xFE;
constexpr uint8_t kReplyClass = 0xFD;
constexpr size_t kDictLimit = 2048;  // rolling history per stream class

}  // namespace

LbxProtocol::LbxProtocol(Simulator& sim, MessageSender& display_out,
                         MessageSender& input_out, ProtoTap* tap, Rng rng,
                         LbxConfig lbx_config, XProtocolConfig x_config)
    : XProtocol(sim, display_out, input_out, tap, rng, x_config),
      lbx_config_(lbx_config) {}

Bytes LbxProtocol::session_setup_bytes() const {
  return x_config().session_setup + Bytes::Of(1024);
}

void LbxProtocol::EmitCompressed(Channel channel, uint8_t stream_class,
                                 const std::vector<uint8_t>& raw) {
  bytes_in_ += static_cast<int64_t>(raw.size());

  // Approximate stream compression: the compressed cost of `raw` is the marginal cost of
  // appending it to the class's recent history.
  std::vector<uint8_t>& dict = dict_[stream_class];
  size_t baseline = dict.empty() ? 0 : LzCodec::CompressedSize(dict);
  std::vector<uint8_t> combined = dict;
  combined.insert(combined.end(), raw.begin(), raw.end());
  size_t together = LzCodec::CompressedSize(combined);
  size_t marginal = together > baseline ? together - baseline : 1;

  // Roll the history forward, bounded.
  dict = std::move(combined);
  if (dict.size() > kDictLimit) {
    dict.erase(dict.begin(), dict.end() - static_cast<ptrdiff_t>(kDictLimit));
  }

  Bytes payload = Bytes::Of(static_cast<int64_t>(marginal)) + lbx_config_.message_header;
  bytes_out_ += payload.count();
  // The proxy adds a (small) recompression cost at the server.
  ChargeEncode(Duration::Micros(3 + static_cast<int64_t>(raw.size()) / 100));
  EmitMessage(channel, payload);
}

void LbxProtocol::OnRequest(std::vector<uint8_t> request) {
  // Tiny requests ride along with the next one; everything else goes out per-request.
  uint8_t stream_class = request.empty() ? 0 : request[0];
  coalesce_buffer_.insert(coalesce_buffer_.end(), request.begin(), request.end());
  if (Bytes::Of(static_cast<int64_t>(coalesce_buffer_.size())) < lbx_config_.coalesce_below) {
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
  if (rng().NextBool(lbx_config_.reply_short_circuit)) {
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
