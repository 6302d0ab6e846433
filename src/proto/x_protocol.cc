#include "src/proto/x_protocol.h"

#include <algorithm>
#include <cassert>

namespace tcs {

namespace {

// Xlib output buffer: requests accumulate and flush once this many bytes are pending.
constexpr Bytes kFlushThreshold = Bytes::Of(256);
// Fixed size of an X event on the wire.
constexpr Bytes kEventBytes = Bytes::Of(32);
// Session negotiation cost measured in the paper's configuration.
constexpr Bytes kSessionSetup = Bytes::Of(16312);
// Payload entropy (see Rng::FillBytes): how compressible each class of bytes is.
constexpr double kTextRedundancy = 0.85;
constexpr double kGeometryRedundancy = 0.7;
constexpr double kImageRedundancy = 0.88;  // UI rasters are flat-region-heavy: LZ halves them
constexpr double kReplyRedundancy = 0.6;

// X pads all requests to 4-byte boundaries.
size_t Pad4(size_t n) {
  return (n + 3) & ~size_t{3};
}

}  // namespace

XProtocol::XProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
                     ProtoTap* tap, Rng rng)
    : DisplayProtocol(sim, display_out, input_out, tap), rng_(rng) {}

Bytes XProtocol::session_setup_bytes() const { return kSessionSetup; }

std::vector<uint8_t> XProtocol::BuildRequest(uint8_t opcode, size_t payload_len,
                                             double redundancy) {
  size_t total = 4 + Pad4(payload_len);
  std::vector<uint8_t> bytes(total);
  bytes[0] = opcode;
  bytes[1] = 0;
  bytes[2] = static_cast<uint8_t>(total / 4);
  bytes[3] = static_cast<uint8_t>((total / 4) >> 8);

  // Raster data (PutImage, opcode 72) and very large payloads carry fresh content; small
  // structured requests drift from a per-opcode template.
  constexpr uint8_t kPutImageOpcode = 72;
  if (opcode == kPutImageOpcode || total > 512) {
    rng_.FillBytes(bytes.data() + 4, total - 4, redundancy);
  } else {
    std::vector<uint8_t>& tmpl = request_templates_[opcode];
    if (tmpl.size() != total - 4) {
      tmpl.resize(total - 4);
      rng_.FillBytes(tmpl.data(), tmpl.size(), redundancy);
    }
    // Mutate a redundancy-dependent fraction of the template: coordinates, sequence
    // numbers, and string content change between requests; structure does not.
    size_t mutations = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(tmpl.size()) * (1.0 - redundancy) / 2));
    for (size_t m = 0; m < mutations; ++m) {
      size_t pos = static_cast<size_t>(rng_.NextBelow(tmpl.size()));
      tmpl[pos] = static_cast<uint8_t>(rng_.NextU64());
    }
    std::copy(tmpl.begin(), tmpl.end(), bytes.begin() + 4);
  }
  ++requests_encoded_;
  RequestProfile& prof = request_profile_[opcode];
  ++prof.count;
  prof.bytes += static_cast<int64_t>(total);
  return bytes;
}

const char* XProtocol::OpcodeName(uint8_t opcode) {
  switch (opcode) {
    case 43:
      return "GetInputFocus";
    case 62:
      return "CopyArea";
    case 65:
      return "PolyLine";
    case 70:
      return "PolyFillRectangle";
    case 72:
      return "PutImage";
    case 74:
      return "PolyText8";
    default:
      return "?";
  }
}

void XProtocol::SubmitDraw(const DrawCommand& cmd) { EncodeDraw(cmd); }

void XProtocol::SubmitDrawBatch(std::span<const DrawCommand> cmds) {
  for (const DrawCommand& cmd : cmds) {
    EncodeDraw(cmd);
  }
}

void XProtocol::EncodeDraw(const DrawCommand& cmd) {
  switch (cmd.op) {
    case DrawOp::kText: {
      // PolyText8: 24-byte fixed part + the string.
      ChargeEncode(Duration::Micros(5 + cmd.text_length / 4));
      OnRequest(BuildRequest(74, 20 + static_cast<size_t>(cmd.text_length),
                             kTextRedundancy));
      break;
    }
    case DrawOp::kRect:
      ChargeEncode(Duration::Micros(4));
      OnRequest(BuildRequest(70, 24, kGeometryRedundancy));  // PolyFillRectangle
      break;
    case DrawOp::kLine:
      ChargeEncode(Duration::Micros(4));
      OnRequest(BuildRequest(65, 20, kGeometryRedundancy));  // PolyLine
      break;
    case DrawOp::kCopyArea:
      ChargeEncode(Duration::Micros(6));
      OnRequest(BuildRequest(62, 24, kGeometryRedundancy));  // CopyArea
      break;
    case DrawOp::kPutImage: {
      // PutImage ships the raw pixels: 20-byte fixed part + w*h bytes at 8 bpp. Server
      // cost is essentially a copy through the socket. Pixel content is a deterministic
      // function of the bitmap's content hash: redrawing the same widget or animation
      // frame puts identical bytes on the stream (which a downstream compressor may or
      // may not be able to exploit — X itself cannot).
      size_t pixels = static_cast<size_t>(cmd.bitmap.raw_bytes.count());
      ChargeEncode(Duration::Micros(10 + static_cast<int64_t>(pixels) / 50));
      size_t total = 4 + Pad4(16 + pixels);
      std::vector<uint8_t> bytes(total);
      bytes[0] = 72;  // PutImage opcode
      bytes[2] = static_cast<uint8_t>(total / 4);
      bytes[3] = static_cast<uint8_t>((total / 4) >> 8);
      Rng content_rng(cmd.bitmap.content_hash);
      content_rng.FillBytes(bytes.data() + 4, total - 4, kImageRedundancy);
      ++requests_encoded_;
      RequestProfile& prof = request_profile_[72];
      ++prof.count;
      prof.bytes += static_cast<int64_t>(total);
      OnRequest(std::move(bytes));
      break;
    }
    case DrawOp::kSync: {
      // Round trip: the pending buffer must flush, then the reply arrives on the input
      // channel (from the display server on the user's machine back to the application).
      ChargeEncode(Duration::Micros(8));
      OnRequest(BuildRequest(43, 4, kGeometryRedundancy));  // e.g. GetInputFocus
      Flush();
      // Replies (font metrics, window properties) are highly repetitive across queries;
      // model them as drifting from a template like requests are.
      size_t reply_len = std::max<size_t>(32, static_cast<size_t>(cmd.reply_bytes.count()));
      std::vector<uint8_t>& tmpl = request_templates_[0xFF];
      if (tmpl.size() != reply_len) {
        tmpl.resize(reply_len);
        rng_.FillBytes(tmpl.data(), tmpl.size(), kReplyRedundancy);
      }
      size_t mutations = std::max<size_t>(1, reply_len / 16);
      for (size_t m = 0; m < mutations; ++m) {
        tmpl[static_cast<size_t>(rng_.NextBelow(tmpl.size()))] =
            static_cast<uint8_t>(rng_.NextU64());
      }
      OnReply(std::vector<uint8_t>(tmpl));
      break;
    }
  }
}

void XProtocol::SubmitInput(const InputEvent& event) {
  // X events are fixed 32-byte structures: type/detail/sequence/time/coordinates, then
  // padding. Consecutive events share almost everything, which is what LBX's delta
  // encoding exploits.
  std::vector<uint8_t> bytes(static_cast<size_t>(kEventBytes.count()), 0);
  bytes[0] = static_cast<uint8_t>(event.type);
  bytes[1] = static_cast<uint8_t>(event.code);
  bytes[4] = static_cast<uint8_t>(event.x);
  bytes[5] = static_cast<uint8_t>(event.x >> 8);
  bytes[6] = static_cast<uint8_t>(event.y);
  bytes[7] = static_cast<uint8_t>(event.y >> 8);
  // Timestamp field: low bits change every event.
  uint64_t ts = static_cast<uint64_t>(sim().Now().ToMicros() / 1000);
  bytes[8] = static_cast<uint8_t>(ts);
  bytes[9] = static_cast<uint8_t>(ts >> 8);
  OnEvent(std::move(bytes));
}

void XProtocol::OnRequest(std::vector<uint8_t> request) {
  xlib_buffer_.insert(xlib_buffer_.end(), request.begin(), request.end());
  if (Bytes::Of(static_cast<int64_t>(xlib_buffer_.size())) >= kFlushThreshold) {
    FlushDisplayBuffer();
  }
}

void XProtocol::OnEvent(std::vector<uint8_t> event) {
  EmitMessage(Channel::kInput, Bytes::Of(static_cast<int64_t>(event.size())));
}

void XProtocol::OnReply(std::vector<uint8_t> reply) {
  EmitMessage(Channel::kInput, Bytes::Of(static_cast<int64_t>(reply.size())));
}

void XProtocol::FlushDisplayBuffer() {
  if (xlib_buffer_.empty()) {
    return;
  }
  EmitMessage(Channel::kDisplay, Bytes::Of(static_cast<int64_t>(xlib_buffer_.size())));
  xlib_buffer_.clear();
}

void XProtocol::Flush() {
  FlushDisplayBuffer();
}

}  // namespace tcs
