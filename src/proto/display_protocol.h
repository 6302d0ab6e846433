// Remote-display protocol interface.
//
// A DisplayProtocol sits between applications and the network: DrawCommands submitted on
// the server are encoded into display-channel messages; InputEvents from the user's
// machine become input-channel messages. Implementations (X, LBX and RDP from §6, SLIM
// and VNC from §7's related work) differ in message granularity, compression, caching,
// and server-side encode cost — exactly the axes §6 compares. Each is a fixed set of
// calibrated sizes; ProtocolPipeline (protocol_pipeline.h) is how callers build one.

#ifndef TCS_SRC_PROTO_DISPLAY_PROTOCOL_H_
#define TCS_SRC_PROTO_DISPLAY_PROTOCOL_H_

#include <functional>
#include <span>
#include <string>
#include <utility>

#include "src/net/endpoint.h"
#include "src/obs/emitter.h"
#include "src/proto/draw.h"
#include "src/proto/prototap.h"
#include "src/sim/simulator.h"

namespace tcs {

class DisplayProtocol {
 public:
  DisplayProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
                  ProtoTap* tap);
  virtual ~DisplayProtocol() = default;

  DisplayProtocol(const DisplayProtocol&) = delete;
  DisplayProtocol& operator=(const DisplayProtocol&) = delete;

  // Server side: the application produced a drawing operation.
  virtual void SubmitDraw(const DrawCommand& cmd) = 0;

  // Server side: the application produced a burst of drawing operations that will be
  // flushed together. Encoders override this to pay virtual dispatch once per burst
  // instead of once per command; the wire output is identical to submitting each command
  // in order. Default: the per-command loop.
  virtual void SubmitDrawBatch(std::span<const DrawCommand> cmds) {
    for (const DrawCommand& cmd : cmds) {
      SubmitDraw(cmd);
    }
  }

  // Client side: the user produced an input event.
  virtual void SubmitInput(const InputEvent& event) = 0;

  // Flushes any batching buffers (end of an interaction step).
  virtual void Flush() {}

  // The session's client reconnected after a disconnect: any client-side state (bitmap
  // cache, glyph sets) must be assumed gone. Default: stateless protocol, nothing to do.
  virtual void OnSessionReconnect() {}

  virtual std::string name() const = 0;

  // Bytes exchanged during session negotiation/initialization (§6.1.1 compulsory load).
  virtual Bytes session_setup_bytes() const = 0;

  // Receives the server-side CPU cost of each encode operation; the server model turns
  // these into scheduler work. Null by default (costs are then dropped).
  void set_encode_cost_sink(std::function<void(Duration)> sink) {
    encode_cost_sink_ = std::move(sink);
  }

  // Invoked with every display-channel message payload size right before transmission;
  // the latency pipeline uses this to timestamp screen updates. Null by default.
  void set_display_message_hook(std::function<void(Bytes)> hook) {
    display_hook_ = std::move(hook);
  }

  // Observability: every emitted message becomes a proto-category trace instant on a
  // per-channel track; implementations add their own events (cache hits, compression)
  // via emit().
  void Attach(Emitter emit);

  // Graceful degradation: the server's DegradationController pushes the bitmap payload
  // scale of its current level (< 1.0 = encode harder and ship smaller rasters, the
  // kHardCache lever; exactly 1.0 = full fidelity and byte-identical to a build without
  // the degradation layer). Protocols without bitmap paths simply ignore the scale.
  void SetDegradedPayloadScale(double payload_scale) {
    degraded_payload_scale_ = payload_scale;
  }

 protected:
  double degraded_payload_scale() const { return degraded_payload_scale_; }
  const Emitter& emit() const { return emit_; }
  TraceTrack display_track() const { return display_track_; }
  // Emits one protocol message on the given channel: records it in the tap and hands it
  // to the channel's MessageSender for wire timing.
  void EmitMessage(Channel channel, Bytes payload);

  void ChargeEncode(Duration cost) {
    if (encode_cost_sink_) {
      encode_cost_sink_(cost);
    }
  }

  Simulator& sim() { return sim_; }

 private:
  Simulator& sim_;
  MessageSender& display_out_;
  MessageSender& input_out_;
  ProtoTap* tap_;
  Emitter emit_;
  TraceTrack display_track_;
  TraceTrack input_track_;
  std::function<void(Duration)> encode_cost_sink_;
  std::function<void(Bytes)> display_hook_;
  double degraded_payload_scale_ = 1.0;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_DISPLAY_PROTOCOL_H_
