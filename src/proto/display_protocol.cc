#include "src/proto/display_protocol.h"

namespace tcs {

DisplayProtocol::DisplayProtocol(Simulator& sim, MessageSender& display_out,
                                 MessageSender& input_out, ProtoTap* tap)
    : sim_(sim), display_out_(display_out), input_out_(input_out), tap_(tap) {}

void DisplayProtocol::Attach(Emitter emit) {
  emit_ = emit;
  display_track_ = emit_.Track("proto", "display");
  input_track_ = emit_.Track("proto", "input");
}

void DisplayProtocol::EmitMessage(Channel channel, Bytes payload) {
  MessageSender& sender = channel == Channel::kDisplay ? display_out_ : input_out_;
  const int64_t packets = sender.PacketsFor(payload);
  if (tap_ != nullptr) {
    Bytes counted = payload + sender.headers().CountedPerPacket() * packets;
    tap_->RecordMessage(channel, payload, counted, sim_.Now());
  }
  emit_.Trace().Instant(TraceCategory::kProto, "msg",
                        channel == Channel::kDisplay ? display_track_ : input_track_,
                        sim_.Now(), {"payload", payload.count()}, {"packets", packets});
  if (channel == Channel::kDisplay && display_hook_) {
    display_hook_(payload);
  }
  sender.SendMessage(payload);
}

}  // namespace tcs
