#include "src/proto/rdp_protocol.h"

#include <algorithm>
#include <vector>

namespace tcs {

namespace {

// PDU assembly: orders accumulate until the buffer reaches this size (or Flush()).
constexpr Bytes kPduFlushThreshold = Bytes::Of(1400);
// Input events are coalesced into one input PDU per window.
constexpr Duration kInputBatchWindow = Duration::Millis(50);
constexpr Bytes kSessionSetup = Bytes::Of(45328);
// Per-order sizes.
constexpr Bytes kTextOrderBase = Bytes::Of(8);       // + 2 bytes per cached glyph
constexpr Bytes kGlyphDefinition = Bytes::Of(26);    // first use of a character
constexpr Bytes kGeometryOrder = Bytes::Of(12);      // rect / line
constexpr Bytes kCopyOrder = Bytes::Of(16);          // screen-to-screen blit
constexpr Bytes kCacheHitOrder = Bytes::Of(12);      // "swap bitmap"
constexpr Bytes kBitmapOrderHeader = Bytes::Of(22);  // miss: header + compressed raster
constexpr Bytes kInputPduBase = Bytes::Of(10);
constexpr Bytes kInputEventBytes = Bytes::Of(4);
// Server-side encode cost of compressing one raster byte on a cache miss.
constexpr Duration kBitmapEncodePerKib = Duration::Micros(500);

}  // namespace

RdpProtocol::RdpProtocol(Simulator& sim, MessageSender& display_out,
                         MessageSender& input_out, ProtoTap* tap, Rng rng, RdpConfig config)
    : DisplayProtocol(sim, display_out, input_out, tap), rng_(rng), cache_(config.cache) {}

Bytes RdpProtocol::session_setup_bytes() const { return kSessionSetup; }

RdpProtocol::~RdpProtocol() {
  if (input_flush_event_.IsValid()) {
    sim().Cancel(input_flush_event_);
  }
}

void RdpProtocol::AppendOrder(Bytes order_bytes) {
  pdu_pending_ += order_bytes;
  if (pdu_pending_ >= kPduFlushThreshold) {
    FlushPdu();
  }
}

void RdpProtocol::FlushPdu() {
  if (pdu_pending_.count() == 0) {
    return;
  }
  EmitMessage(Channel::kDisplay, pdu_pending_);
  pdu_pending_ = Bytes::Zero();
}

void RdpProtocol::SubmitDraw(const DrawCommand& cmd) { EncodeDraw(cmd); }

void RdpProtocol::SubmitDrawBatch(std::span<const DrawCommand> cmds) {
  for (const DrawCommand& cmd : cmds) {
    EncodeDraw(cmd);
  }
}

void RdpProtocol::EncodeDraw(const DrawCommand& cmd) {
  switch (cmd.op) {
    case DrawOp::kText: {
      // Glyphs render through the glyph cache: first use of a character code ships the
      // raster, subsequent uses a 2-byte index.
      Bytes order = kTextOrderBase;
      for (int i = 0; i < cmd.text_length; ++i) {
        int glyph = static_cast<int>(rng_.NextBelow(96));
        if (glyphs_seen_.insert(glyph).second) {
          order += kGlyphDefinition;
        } else {
          order += Bytes::Of(2);
        }
      }
      ChargeEncode(Duration::Micros(6 + cmd.text_length / 2));
      AppendOrder(order);
      break;
    }
    case DrawOp::kRect:
    case DrawOp::kLine:
      ChargeEncode(Duration::Micros(5));
      AppendOrder(kGeometryOrder);
      break;
    case DrawOp::kCopyArea:
      ChargeEncode(Duration::Micros(6));
      AppendOrder(kCopyOrder);
      break;
    case DrawOp::kPutImage: {
      if (cache_.Lookup(cmd.bitmap.content_hash)) {
        // Client already holds the pixels: a tiny order swaps them onto the screen.
        ChargeEncode(Duration::Micros(40));
        if (tracer() != nullptr) {
          tracer()->Instant(TraceCategory::kProto, "cache-hit", display_track(),
                            sim().Now(), "raw", cmd.bitmap.raw_bytes.count(), "sent",
                            kCacheHitOrder.count());
        }
        AppendOrder(kCacheHitOrder);
      } else {
        // Miss: the server compresses and ships the raster, and the client caches it.
        // Under hard-cache degradation the encoder trades extra CPU for a smaller raster
        // (payload scaled down, encode bill scaled up); at scale 1.0 this is the
        // unmodified full-fidelity path.
        double kib = cmd.bitmap.raw_bytes.ToKiBF();
        Bytes compressed = cmd.bitmap.compressed_bytes;
        if (degraded_payload_scale() < 1.0) {
          compressed = Bytes::Of(std::max<int64_t>(
              1, static_cast<int64_t>(static_cast<double>(compressed.count()) *
                                      degraded_payload_scale())));
          ChargeEncode(kBitmapEncodePerKib * kib * 1.5);
        } else {
          ChargeEncode(kBitmapEncodePerKib * kib);
        }
        cache_.Insert(cmd.bitmap.content_hash, compressed);
        if (tracer() != nullptr) {
          tracer()->Instant(TraceCategory::kProto, "cache-miss", display_track(),
                            sim().Now(), "raw", cmd.bitmap.raw_bytes.count(), "compressed",
                            compressed.count());
        }
        AppendOrder(kBitmapOrderHeader + compressed);
        FlushPdu();  // raster orders go out immediately
      }
      break;
    }
    case DrawOp::kSync:
      // RDP has no client round-trips for drawing state; the server answers locally.
      ChargeEncode(Duration::Micros(2));
      break;
  }
}

void RdpProtocol::SubmitInput(const InputEvent& event) {
  (void)event;
  ++pending_input_events_;
  if (!input_flush_event_.IsValid() || !sim().IsPending(input_flush_event_)) {
    input_flush_event_ =
        sim().Schedule(kInputBatchWindow, [this] { FlushInputBatch(); });
  }
}

void RdpProtocol::FlushInputBatch() {
  if (pending_input_events_ == 0) {
    return;
  }
  Bytes payload = kInputPduBase + kInputEventBytes * pending_input_events_;
  pending_input_events_ = 0;
  EmitMessage(Channel::kInput, payload);
}

void RdpProtocol::Flush() {
  FlushPdu();
  FlushInputBatch();
}

void RdpProtocol::OnSessionReconnect() {
  // Anything buffered was addressed to the old connection.
  pdu_pending_ = Bytes::Zero();
  pending_input_events_ = 0;
  cache_.InvalidateAll();
  glyphs_seen_.clear();
}

}  // namespace tcs
