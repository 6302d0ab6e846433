// The SLIM wire protocol (Schmidt, Lam & Northcutt, "The interactive performance of
// SLIM: a stateless, thin-client architecture", 1999) — the Sun Ray protocol the paper
// discusses in §7: "more platform independent than X or RDP, [but] roughly equivalent in
// performance to X, placing it still behind RDP and LBX in network load efficiency."
//
// SLIM is deliberately simple and stateless: four low-level display primitives (SET raw
// pixels, BITMAP two-color, FILL, COPY), no client-side caching, no stream compression,
// fixed per-command headers, one message per command. Text renders as two-color BITMAP
// commands (1 bit per pixel plus colors); everything else ships raw or as a rectangle op.

#ifndef TCS_SRC_PROTO_SLIM_PROTOCOL_H_
#define TCS_SRC_PROTO_SLIM_PROTOCOL_H_

#include "src/proto/display_protocol.h"

namespace tcs {

class SlimProtocol final : public DisplayProtocol {
 public:
  SlimProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
               ProtoTap* tap);

  void SubmitDraw(const DrawCommand& cmd) override;
  void SubmitDrawBatch(std::span<const DrawCommand> cmds) override;
  void SubmitInput(const InputEvent& event) override;
  std::string name() const override { return "SLIM"; }
  Bytes session_setup_bytes() const override;

  int64_t commands_encoded() const { return commands_encoded_; }

 private:
  // The command encoder proper; SubmitDraw/SubmitDrawBatch are thin dispatch shims.
  void EncodeDraw(const DrawCommand& cmd);
  void EmitCommand(Bytes payload);

  int64_t commands_encoded_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_SLIM_PROTOCOL_H_
