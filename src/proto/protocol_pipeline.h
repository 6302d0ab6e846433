// The one way to build a protocol: a ProtocolPipeline is a session's display and input
// message senders on a frame transport plus the encoder for its ProtocolKind. A Server
// builds one per login over that session's SessionFlow; a ProtocolHarness builds one over
// a link of its own for the experiments and tools that exercise only the network.

#ifndef TCS_SRC_PROTO_PROTOCOL_PIPELINE_H_
#define TCS_SRC_PROTO_PROTOCOL_PIPELINE_H_

#include <cstdint>
#include <memory>

#include "src/net/endpoint.h"
#include "src/net/link.h"
#include "src/proto/display_protocol.h"
#include "src/proto/protocol_kind.h"
#include "src/proto/prototap.h"
#include "src/proto/rdp_protocol.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcs {

class ProtocolPipeline {
 public:
  // Both senders frame messages with TCP/IP headers. `rdp` configures the RDP encoder and
  // is ignored for every other kind. A VNC encoder starts its client-pull loop here, as a
  // connected viewer's would.
  ProtocolPipeline(ProtocolKind kind, Simulator& sim, FrameTransport& transport,
                   ProtoTap* tap, Rng rng, RdpConfig rdp = {});

  ProtocolPipeline(const ProtocolPipeline&) = delete;
  ProtocolPipeline& operator=(const ProtocolPipeline&) = delete;

  DisplayProtocol& protocol() const { return *protocol_; }
  MessageSender& display() { return display_; }
  // Packets the two senders put on the transport.
  int64_t packets_sent() const { return display_.packets_sent() + input_.packets_sent(); }
  // The RDP encoder's client bitmap cache; null for every other kind.
  const BitmapCache* cache() const;

 private:
  MessageSender display_;
  MessageSender input_;
  std::unique_ptr<DisplayProtocol> protocol_;
};

// A protocol-only run: its own simulator and link, one tap, and one pipeline on the link.
struct ProtocolHarness {
  explicit ProtocolHarness(ProtocolKind kind, uint64_t seed,
                           Duration tap_bucket = Duration::Seconds(1), RdpConfig rdp = {});

  DisplayProtocol& protocol() const { return pipeline.protocol(); }

  // Ends the run: stops VNC's client pull, flushes the encoder and runs the simulator
  // dry; damage VNC holds after its last pull then ships on one final round.
  void Drain();

  Simulator sim;
  Link link;
  ProtoTap tap;
  ProtocolPipeline pipeline;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_PROTOCOL_PIPELINE_H_
