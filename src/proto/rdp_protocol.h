// The Remote Display Protocol (RDP) model (§2, §6).
//
// RDP's specification was unpublished; the paper characterizes it behaviourally and this
// model implements those behaviours:
//  * high-level drawing "orders" batched into large PDUs (few, large messages — RDP's
//    average message was ~2x X's and its message count ~7% of X's);
//  * a glyph cache: the first use of a character ships its raster, later uses ship a
//    2-byte index;
//  * the client-side 1.5 MB LRU bitmap cache (Figures 4-7): a hit costs a tiny
//    "swap bitmap" order, a miss ships the compressed raster and re-encodes it at the
//    server (the CPU load of Figure 6);
//  * batched, terse input: scancode-level events coalesced into periodic input PDUs.

#ifndef TCS_SRC_PROTO_RDP_PROTOCOL_H_
#define TCS_SRC_PROTO_RDP_PROTOCOL_H_

#include <unordered_set>

#include "src/proto/bitmap_cache.h"
#include "src/proto/display_protocol.h"
#include "src/sim/random.h"

namespace tcs {

struct RdpConfig {
  BitmapCacheConfig cache;
};

class RdpProtocol final : public DisplayProtocol {
 public:
  RdpProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
              ProtoTap* tap, Rng rng, RdpConfig config = {});
  ~RdpProtocol() override;

  void SubmitDraw(const DrawCommand& cmd) override;
  void SubmitDrawBatch(std::span<const DrawCommand> cmds) override;
  void SubmitInput(const InputEvent& event) override;
  void Flush() override;
  // Reconnect invalidates all client-side caches: the bitmap cache and glyph sets must
  // be rebuilt, so the first post-reconnect screenful re-ships rasters (TSE's resync).
  void OnSessionReconnect() override;
  std::string name() const override { return "RDP"; }
  Bytes session_setup_bytes() const override;

  const BitmapCache& bitmap_cache() const { return cache_; }
  BitmapCache& bitmap_cache() { return cache_; }

 private:
  // The order encoder proper; SubmitDraw/SubmitDrawBatch are thin dispatch shims over it.
  void EncodeDraw(const DrawCommand& cmd);
  void AppendOrder(Bytes order_bytes);
  void FlushPdu();
  void FlushInputBatch();

  Rng rng_;
  BitmapCache cache_;
  std::unordered_set<int> glyphs_seen_;
  Bytes pdu_pending_ = Bytes::Zero();
  int pending_input_events_ = 0;
  EventId input_flush_event_;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_RDP_PROTOCOL_H_
