// The one place a ProtocolKind becomes a DisplayProtocol, for servers, protocol-only
// harnesses and tools alike.

#ifndef TCS_SRC_PROTO_PROTOCOL_FACTORY_H_
#define TCS_SRC_PROTO_PROTOCOL_FACTORY_H_

#include <memory>

#include "src/proto/lbx_protocol.h"  // and XProtocol, which LBX extends
#include "src/proto/protocol_kind.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/slim_protocol.h"
#include "src/proto/vnc_protocol.h"

namespace tcs {

// `rdp` configures the RDP encoder and is ignored for every other kind. A VNC protocol
// comes back with its client-pull loop already started, as a connected viewer's would.
inline std::unique_ptr<DisplayProtocol> MakeProtocol(
    ProtocolKind kind, Simulator& sim, MessageSender& display, MessageSender& input,
    ProtoTap* tap, Rng rng, RdpConfig rdp = {}) {
  switch (kind) {
    case ProtocolKind::kRdp:
      return std::make_unique<RdpProtocol>(sim, display, input, tap, rng, rdp);
    case ProtocolKind::kX:
      return std::make_unique<XProtocol>(sim, display, input, tap, rng);
    case ProtocolKind::kLbx:
      return std::make_unique<LbxProtocol>(sim, display, input, tap, rng);
    case ProtocolKind::kSlim:
      return std::make_unique<SlimProtocol>(sim, display, input, tap, rng);
    case ProtocolKind::kVnc: {
      auto vnc = std::make_unique<VncProtocol>(sim, display, input, tap, rng);
      vnc->StartClientPull();
      return vnc;
    }
  }
  return nullptr;
}

}  // namespace tcs

#endif  // TCS_SRC_PROTO_PROTOCOL_FACTORY_H_
