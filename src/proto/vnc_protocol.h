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
#include "src/sim/random.h"

namespace tcs {

struct VncConfig {
  // Client pull cadence (request -> update round).
  Duration pull_interval = Duration::Millis(100);
  Bytes update_request_bytes = Bytes::Of(10);
  Bytes update_header = Bytes::Of(16);
  Bytes rect_header = Bytes::Of(12);
  Bytes input_event_bytes = Bytes::Of(8);
  // Hextile-style encoding effectiveness on UI content.
  double encode_ratio = 0.45;
  // Total framebuffer size (dirty bytes per round are capped by a full-screen repaint).
  Bytes framebuffer = Bytes::Of(800 * 600);
  Bytes session_setup = Bytes::Of(12400);
};

class VncProtocol final : public DisplayProtocol {
 public:
  VncProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
              ProtoTap* tap, Rng rng, VncConfig config = {});

  void SubmitDraw(const DrawCommand& cmd) override;
  void SubmitDrawBatch(std::span<const DrawCommand> cmds) override;
  void SubmitInput(const InputEvent& event) override;
  // A no-op: updates ship on the pull cadence, never on application flush boundaries.
  void Flush() override;
  std::string name() const override { return "VNC"; }
  Bytes session_setup_bytes() const override { return config_.session_setup; }

  // Starts the client's pull loop. Experiments must call this once (the protocol cannot
  // push updates on its own).
  void StartClientPull();
  void StopClientPull();

  int64_t updates_sent() const { return updates_sent_; }

 private:
  // The damage accumulator proper; SubmitDraw/SubmitDrawBatch are thin dispatch shims.
  void EncodeDraw(const DrawCommand& cmd);
  void OnPull();

  VncConfig config_;
  Rng rng_;
  PeriodicTask pull_task_;
  Bytes dirty_raw_ = Bytes::Zero();
  int dirty_rects_ = 0;
  int64_t updates_sent_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_VNC_PROTOCOL_H_
