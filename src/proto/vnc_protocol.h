// VNC / RFB (Richardson et al., "Virtual Network Computing", 1998) — the other §7
// related-work protocol: a framebuffer-level, client-pull design.
//
// The client sends FramebufferUpdateRequests; the server replies with the regions that
// changed since the last request, hextile-style encoded. Pulling naturally coalesces
// rapid changes (an animation ticking faster than the pull rate only ships the latest
// frame), which trades update latency for bandwidth — the opposite end of the design
// space from RDP's server-push-plus-cache.

#ifndef TCS_SRC_PROTO_VNC_PROTOCOL_H_
#define TCS_SRC_PROTO_VNC_PROTOCOL_H_

#include "src/proto/display_protocol.h"
#include "src/sim/periodic.h"

namespace tcs {

class VncProtocol final : public DisplayProtocol {
 public:
  VncProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
              ProtoTap* tap);

  void SubmitDraw(const DrawCommand& cmd) override;
  void SubmitDrawBatch(std::span<const DrawCommand> cmds) override;
  void SubmitInput(const InputEvent& event) override;
  // A no-op: updates ship on the pull cadence, never on application flush boundaries.
  void Flush() override;
  std::string name() const override { return "VNC"; }
  Bytes session_setup_bytes() const override;

  // Starts the client's pull loop. Experiments must call this once (the protocol cannot
  // push updates on its own).
  void StartClientPull();
  void StopClientPull();
  // One last pull round when damage is pending: how a run that stopped the pull ships
  // what was drawn after its last round.
  void ShipPendingDamage();

  int64_t updates_sent() const { return updates_sent_; }

 private:
  // The damage accumulator proper; SubmitDraw/SubmitDrawBatch are thin dispatch shims.
  void EncodeDraw(const DrawCommand& cmd);
  void OnPull();

  PeriodicTask pull_task_;
  Bytes dirty_raw_ = Bytes::Zero();
  int dirty_rects_ = 0;
  int64_t updates_sent_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_VNC_PROTOCOL_H_
