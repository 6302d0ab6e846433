#include "src/proto/slim_protocol.h"

namespace tcs {

namespace {

constexpr Bytes kCommandHeader = Bytes::Of(16);
constexpr Bytes kInputEventBytes = Bytes::Of(20);
// Sun Ray session establishment is thin: the appliance is stateless.
constexpr Bytes kSessionSetup = Bytes::Of(8200);
// Glyph cell geometry for text rendered as two-color bitmaps.
constexpr int kGlyphWidth = 8;
constexpr int kGlyphHeight = 16;

}  // namespace

SlimProtocol::SlimProtocol(Simulator& sim, MessageSender& display_out,
                           MessageSender& input_out, ProtoTap* tap)
    : DisplayProtocol(sim, display_out, input_out, tap) {}

Bytes SlimProtocol::session_setup_bytes() const { return kSessionSetup; }

void SlimProtocol::EmitCommand(Bytes payload) {
  ++commands_encoded_;
  EmitMessage(Channel::kDisplay, kCommandHeader + payload);
}

void SlimProtocol::SubmitDraw(const DrawCommand& cmd) { EncodeDraw(cmd); }

void SlimProtocol::SubmitDrawBatch(std::span<const DrawCommand> cmds) {
  for (const DrawCommand& cmd : cmds) {
    EncodeDraw(cmd);
  }
}

void SlimProtocol::EncodeDraw(const DrawCommand& cmd) {
  switch (cmd.op) {
    case DrawOp::kText: {
      // BITMAP: 1 bit/pixel glyph cells plus the two colors.
      int64_t pixels = static_cast<int64_t>(cmd.text_length) * kGlyphWidth * kGlyphHeight;
      ChargeEncode(Duration::Micros(4 + cmd.text_length / 2));
      EmitCommand(Bytes::Of(pixels / 8 + 8));
      break;
    }
    case DrawOp::kRect:
      ChargeEncode(Duration::Micros(3));
      EmitCommand(Bytes::Of(8));  // FILL: color + rect
      break;
    case DrawOp::kLine:
      // SLIM has no line primitive: a thin FILL per segment.
      ChargeEncode(Duration::Micros(3));
      EmitCommand(Bytes::Of(8));
      break;
    case DrawOp::kCopyArea:
      ChargeEncode(Duration::Micros(4));
      EmitCommand(Bytes::Of(12));  // COPY: src + dst rects
      break;
    case DrawOp::kPutImage:
      // SET: raw 8-bpp pixels, no compression, no cache.
      ChargeEncode(Duration::Micros(8 + cmd.bitmap.raw_bytes.count() / 60));
      EmitCommand(cmd.bitmap.raw_bytes);
      break;
    case DrawOp::kSync:
      // Stateless protocol: nothing to query; the server-side virtual framebuffer
      // answers locally.
      ChargeEncode(Duration::Micros(1));
      break;
  }
}

void SlimProtocol::SubmitInput(const InputEvent& event) {
  (void)event;
  EmitMessage(Channel::kInput, kInputEventBytes);
}

}  // namespace tcs
