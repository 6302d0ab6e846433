#include "src/proto/vnc_protocol.h"

#include <algorithm>

namespace tcs {

namespace {

// Client pull cadence (request -> update round).
constexpr Duration kPullInterval = Duration::Millis(100);
constexpr Bytes kUpdateRequestBytes = Bytes::Of(10);
constexpr Bytes kUpdateHeader = Bytes::Of(16);
constexpr Bytes kRectHeader = Bytes::Of(12);
constexpr Bytes kInputEventBytes = Bytes::Of(8);
// Hextile-style encoding effectiveness on UI content.
constexpr double kEncodeRatio = 0.45;
// Total framebuffer size (dirty bytes per round are capped by a full-screen repaint).
constexpr Bytes kFramebuffer = Bytes::Of(800 * 600);
constexpr Bytes kSessionSetup = Bytes::Of(12400);

}  // namespace

VncProtocol::VncProtocol(Simulator& sim, MessageSender& display_out,
                         MessageSender& input_out, ProtoTap* tap)
    : DisplayProtocol(sim, display_out, input_out, tap),
      pull_task_(sim, kPullInterval, [this] { OnPull(); }) {}

Bytes VncProtocol::session_setup_bytes() const { return kSessionSetup; }

void VncProtocol::StartClientPull() {
  pull_task_.Start(kPullInterval);
}

void VncProtocol::StopClientPull() {
  pull_task_.Stop();
}

void VncProtocol::ShipPendingDamage() {
  if (dirty_raw_.count() > 0) {
    OnPull();
  }
}

void VncProtocol::SubmitDraw(const DrawCommand& cmd) { EncodeDraw(cmd); }

void VncProtocol::SubmitDrawBatch(std::span<const DrawCommand> cmds) {
  for (const DrawCommand& cmd : cmds) {
    EncodeDraw(cmd);
  }
}

void VncProtocol::EncodeDraw(const DrawCommand& cmd) {
  // Everything lands in the server-side framebuffer; the protocol only tracks how many
  // raw bytes are dirty for the next update.
  Bytes raw = Bytes::Zero();
  switch (cmd.op) {
    case DrawOp::kText:
      raw = Bytes::Of(static_cast<int64_t>(cmd.text_length) * 8 * 16);
      break;
    case DrawOp::kRect:
      raw = Bytes::Of(static_cast<int64_t>(cmd.width) * std::max(1, cmd.height));
      break;
    case DrawOp::kLine:
      raw = Bytes::Of(static_cast<int64_t>(std::max(1, cmd.width)) * 2);
      break;
    case DrawOp::kCopyArea:
      // The framebuffer copy dirties the destination; RFB has a CopyRect encoding that
      // ships only coordinates, so the wire cost is tiny but the region must still be
      // described.
      raw = Bytes::Of(32);
      break;
    case DrawOp::kPutImage:
      raw = cmd.bitmap.raw_bytes;
      break;
    case DrawOp::kSync:
      return;  // no round trips in RFB drawing
  }
  ChargeEncode(Duration::Micros(2 + raw.count() / 200));
  // Rapid repeated damage to the same region coalesces: cap at a full-screen repaint.
  dirty_raw_ = std::min(dirty_raw_ + raw, kFramebuffer);
  ++dirty_rects_;
}

void VncProtocol::OnPull() {
  // Client request (input channel)...
  EmitMessage(Channel::kInput, kUpdateRequestBytes);
  if (dirty_raw_.count() == 0) {
    return;  // server withholds the update until something changes
  }
  // ...server responds with the encoded dirty regions.
  int rects = std::min(dirty_rects_, 16);
  Bytes encoded =
      Bytes::Of(static_cast<int64_t>(static_cast<double>(dirty_raw_.count()) * kEncodeRatio));
  Bytes payload = kUpdateHeader + kRectHeader * rects + encoded;
  ChargeEncode(Duration::Micros(20 + dirty_raw_.count() / 100));
  ++updates_sent_;
  EmitMessage(Channel::kDisplay, payload);
  dirty_raw_ = Bytes::Zero();
  dirty_rects_ = 0;
}

void VncProtocol::Flush() {
  // Intentionally a no-op: RFB updates ship on the client's pull cadence, not on
  // application flush boundaries — that coalescing is the protocol's defining trade.
}

void VncProtocol::SubmitInput(const InputEvent& event) {
  (void)event;
  EmitMessage(Channel::kInput, kInputEventBytes);
}

}  // namespace tcs
