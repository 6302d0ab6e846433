// The X Window System wire protocol model (§2, §6).
//
// X encodes low-level graphics primitives: each DrawCommand becomes one or more small
// requests (fixed header + payload), buffered Xlib-style and flushed when the buffer
// fills, when a round-trip forces it, or at the end of an interaction step. Raster
// transfers (PutImage) ship uncompressed pixels — X has no bitmap cache, which is why
// animations re-send every frame (Figure 5). Input is verbose: every key transition,
// pointer motion sample, and round-trip reply is a message on the input channel.
//
// Requests are materialized as actual bytes (header + payload of calibrated entropy) so
// that LBX — a proxy over this very byte stream — can run a real compressor over them.

#ifndef TCS_SRC_PROTO_X_PROTOCOL_H_
#define TCS_SRC_PROTO_X_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/proto/display_protocol.h"
#include "src/sim/random.h"

namespace tcs {

class XProtocol : public DisplayProtocol {
 public:
  XProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
            ProtoTap* tap, Rng rng);

  void SubmitDraw(const DrawCommand& cmd) override;
  void SubmitDrawBatch(std::span<const DrawCommand> cmds) override;
  void SubmitInput(const InputEvent& event) override;
  void Flush() override;
  std::string name() const override { return "X"; }
  Bytes session_setup_bytes() const override;

  int64_t requests_encoded() const { return requests_encoded_; }

  // Danskin-style protocol profile (§7: "Danskin published several papers on profiling
  // the X protocol... his methodology provides the inspiration for our prototap tool"):
  // per-request-type counts and bytes.
  struct RequestProfile {
    int64_t count = 0;
    int64_t bytes = 0;
  };
  const std::map<uint8_t, RequestProfile>& request_profile() const {
    return request_profile_;
  }
  // Human-readable name for the X opcodes this model emits.
  static const char* OpcodeName(uint8_t opcode);

 protected:
  // For LBX, whose compressor reads the pixels a PutImage carries; plain X only counts
  // them, so its requests leave the pixel bytes zero.
  XProtocol(Simulator& sim, MessageSender& display_out, MessageSender& input_out,
            ProtoTap* tap, Rng rng, bool draw_pixels);

  // Hook points for LBX: one call per X request / event / reply, carrying the actual
  // bytes. Defaults implement plain X framing (buffered batches on the display channel,
  // one message per event or reply on the input channel).
  virtual void OnRequest(std::vector<uint8_t> request);
  virtual void OnEvent(std::vector<uint8_t> event);
  virtual void OnReply(std::vector<uint8_t> reply);

  Rng& rng() { return rng_; }

  // Builds an X request: 4-byte header then `payload_len` bytes of `redundancy` entropy.
  // Small requests of the same opcode are generated from a drifting per-opcode template —
  // consecutive requests share most bytes, as real X traffic does (same window/gc IDs,
  // nearby coordinates) — which is precisely the self-similarity LBX's stream compressor
  // exploited. Raster payloads (PutImage) are generated fresh: frames do not resemble
  // each other.
  std::vector<uint8_t> BuildRequest(uint8_t opcode, size_t payload_len, double redundancy);

 private:
  // The request encoder proper; SubmitDraw/SubmitDrawBatch are thin dispatch shims over
  // it. LBX inherits both shims — per-request bytes still flow through the virtual
  // OnRequest/OnReply hooks, so its compressor sees the identical stream.
  void EncodeDraw(const DrawCommand& cmd);
  void FlushDisplayBuffer();

  Rng rng_;
  const bool draw_pixels_;
  std::vector<uint8_t> xlib_buffer_;
  std::unordered_map<uint8_t, std::vector<uint8_t>> request_templates_;
  std::map<uint8_t, RequestProfile> request_profile_;
  int64_t requests_encoded_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_X_PROTOCOL_H_
