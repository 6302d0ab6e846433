#include "src/proto/protocol_pipeline.h"

#include "src/proto/lbx_protocol.h"  // and XProtocol, which LBX extends
#include "src/proto/slim_protocol.h"
#include "src/proto/vnc_protocol.h"

namespace tcs {

namespace {

std::unique_ptr<DisplayProtocol> MakeProtocol(ProtocolKind kind, Simulator& sim,
                                              MessageSender& display, MessageSender& input,
                                              ProtoTap* tap, Rng rng, RdpConfig rdp) {
  switch (kind) {
    case ProtocolKind::kRdp:
      return std::make_unique<RdpProtocol>(sim, display, input, tap, rng, rdp);
    case ProtocolKind::kX:
      return std::make_unique<XProtocol>(sim, display, input, tap, rng);
    case ProtocolKind::kLbx:
      return std::make_unique<LbxProtocol>(sim, display, input, tap, rng);
    case ProtocolKind::kSlim:
      return std::make_unique<SlimProtocol>(sim, display, input, tap);
    case ProtocolKind::kVnc: {
      auto vnc = std::make_unique<VncProtocol>(sim, display, input, tap);
      vnc->StartClientPull();
      return vnc;
    }
  }
  return nullptr;
}

}  // namespace

ProtocolPipeline::ProtocolPipeline(ProtocolKind kind, Simulator& sim,
                                   FrameTransport& transport, ProtoTap* tap, Rng rng,
                                   RdpConfig rdp)
    : display_(transport, HeaderModel::TcpIp()),
      input_(transport, HeaderModel::TcpIp()),
      protocol_(MakeProtocol(kind, sim, display_, input_, tap, rng, rdp)) {}

const BitmapCache* ProtocolPipeline::cache() const {
  auto* rdp = dynamic_cast<const RdpProtocol*>(protocol_.get());
  return rdp != nullptr ? &rdp->bitmap_cache() : nullptr;
}

ProtocolHarness::ProtocolHarness(ProtocolKind kind, uint64_t seed, Duration tap_bucket,
                                 RdpConfig rdp)
    : link(sim), tap(tap_bucket), pipeline(kind, sim, link, &tap, Rng(seed), rdp) {}

void ProtocolHarness::Drain() {
  auto* vnc = dynamic_cast<VncProtocol*>(&protocol());
  if (vnc != nullptr) {
    vnc->StopClientPull();
  }
  protocol().Flush();
  sim.Run();
  if (vnc != nullptr) {
    vnc->ShipPendingDamage();
    sim.Run();
  }
}

}  // namespace tcs
