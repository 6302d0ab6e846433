// Batch-vs-loop encode equivalence: SubmitDrawBatch must be a pure dispatch
// optimization. For every protocol, feeding the same command stream through
// per-command SubmitDraw and through SubmitDrawBatch (with identical flush boundaries
// and RNG seeds) must produce the identical message sequence, byte counts, and charged
// encode cost.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "src/proto/lbx_protocol.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/slim_protocol.h"
#include "src/proto/vnc_protocol.h"
#include "src/proto/x_protocol.h"

namespace tcs {
namespace {

struct ProtoFixture {
  ProtoFixture()
      : link(sim),
        display(link, HeaderModel::TcpIp()),
        input(link, HeaderModel::TcpIp()),
        tap(Duration::Millis(100)) {}

  template <typename P>
  std::unique_ptr<P> Make() {
    if constexpr (std::is_constructible_v<P, Simulator&, MessageSender&, MessageSender&,
                                          ProtoTap*, Rng>) {
      return std::make_unique<P>(sim, display, input, &tap, Rng(1234));
    } else {
      return std::make_unique<P>(sim, display, input, &tap);  // SLIM and VNC draw no Rng
    }
  }

  Simulator sim;
  Link link;
  MessageSender display;
  MessageSender input;
  ProtoTap tap;
};

// Everything observable about an encode run: the ordered display-message sizes, the
// total server-side encode cost, and the tap's per-channel accounting.
struct Capture {
  std::vector<int64_t> display_sizes;
  int64_t encode_us = 0;
};

void Attach(DisplayProtocol& p, Capture& c) {
  p.set_display_message_hook([&c](Bytes b) { c.display_sizes.push_back(b.count()); });
  p.set_encode_cost_sink([&c](Duration d) { c.encode_us += d.ToMicros(); });
}

// A stream exercising every DrawOp, with repeats (bitmap-cache hits, glyph-cache hits)
// and fresh content (cache misses), split into uneven flush groups.
std::vector<std::vector<DrawCommand>> CommandGroups() {
  BitmapRef repeated = BitmapRef::Make(7, 64, 64, 0.5);
  BitmapRef fresh_a = BitmapRef::Make(100, 120, 80, 0.7);
  BitmapRef fresh_b = BitmapRef::Make(101, 120, 80, 0.7);
  return {
      {DrawCommand::Text(12), DrawCommand::Rect(40, 20), DrawCommand::Line(33)},
      {DrawCommand::PutImage(repeated)},
      {DrawCommand::CopyArea(200, 100), DrawCommand::PutImage(repeated),
       DrawCommand::PutImage(fresh_a), DrawCommand::Text(3)},
      {DrawCommand::Sync(Bytes::Of(120)), DrawCommand::Text(40),
       DrawCommand::PutImage(fresh_b), DrawCommand::Rect(5, 5),
       DrawCommand::PutImage(repeated)},
      {DrawCommand::Line(7), DrawCommand::Text(12)},  // same text length: glyph hits
  };
}

void DriveLooped(DisplayProtocol& p) {
  for (const auto& group : CommandGroups()) {
    for (const DrawCommand& cmd : group) {
      p.SubmitDraw(cmd);
    }
    p.Flush();
  }
}

void DriveBatched(DisplayProtocol& p) {
  for (const auto& group : CommandGroups()) {
    p.SubmitDrawBatch(group);
    p.Flush();
  }
}

void ExpectEquivalent(const ProtoFixture& loop_f, const Capture& loop_c,
                      const ProtoFixture& batch_f, const Capture& batch_c) {
  EXPECT_EQ(loop_c.display_sizes, batch_c.display_sizes);
  EXPECT_EQ(loop_c.encode_us, batch_c.encode_us);
  for (Channel ch : {Channel::kDisplay, Channel::kInput}) {
    EXPECT_EQ(loop_f.tap.messages(ch), batch_f.tap.messages(ch));
    EXPECT_EQ(loop_f.tap.payload_bytes(ch), batch_f.tap.payload_bytes(ch));
    EXPECT_EQ(loop_f.tap.counted_bytes(ch), batch_f.tap.counted_bytes(ch));
  }
}

template <typename P>
void RunEquivalence() {
  ProtoFixture loop_f;
  ProtoFixture batch_f;
  auto loop_p = loop_f.template Make<P>();
  auto batch_p = batch_f.template Make<P>();
  Capture loop_c;
  Capture batch_c;
  Attach(*loop_p, loop_c);
  Attach(*batch_p, batch_c);
  DriveLooped(*loop_p);
  DriveBatched(*batch_p);
  ASSERT_FALSE(loop_c.display_sizes.empty());
  ExpectEquivalent(loop_f, loop_c, batch_f, batch_c);
}

TEST(BatchEquivalenceTest, X) { RunEquivalence<XProtocol>(); }
TEST(BatchEquivalenceTest, Lbx) { RunEquivalence<LbxProtocol>(); }
TEST(BatchEquivalenceTest, Rdp) { RunEquivalence<RdpProtocol>(); }
TEST(BatchEquivalenceTest, Slim) { RunEquivalence<SlimProtocol>(); }

// VNC coalesces damage and ships on the client's pull cadence, so equivalence is
// checked after the pull loop has drained the dirty state.
TEST(BatchEquivalenceTest, Vnc) {
  ProtoFixture loop_f;
  ProtoFixture batch_f;
  auto loop_p = loop_f.Make<VncProtocol>();
  auto batch_p = batch_f.Make<VncProtocol>();
  Capture loop_c;
  Capture batch_c;
  Attach(*loop_p, loop_c);
  Attach(*batch_p, batch_c);
  loop_p->StartClientPull();
  batch_p->StartClientPull();
  DriveLooped(*loop_p);
  DriveBatched(*batch_p);
  loop_f.sim.RunUntil(TimePoint::Zero() + Duration::Millis(500));
  batch_f.sim.RunUntil(TimePoint::Zero() + Duration::Millis(500));
  ASSERT_FALSE(loop_c.display_sizes.empty());
  EXPECT_EQ(loop_p->updates_sent(), batch_p->updates_sent());
  ExpectEquivalent(loop_f, loop_c, batch_f, batch_c);
}

// The default base-class SubmitDrawBatch (the per-command fallback loop) must share the
// equivalence property — a protocol that never overrides it still batches correctly.
TEST(BatchEquivalenceTest, DefaultFallbackLoop) {
  class FallbackSlim final : public DisplayProtocol {
   public:
    FallbackSlim(Simulator& sim, MessageSender& d, MessageSender& i, ProtoTap* tap)
        : DisplayProtocol(sim, d, i, tap), inner_(sim, d, i, nullptr) {}
    void SubmitDraw(const DrawCommand& cmd) override {
      // Inherits the base-class SubmitDrawBatch loop.
      inner_.SubmitDraw(cmd);
    }
    void SubmitInput(const InputEvent& event) override { inner_.SubmitInput(event); }
    std::string name() const override { return "fallback"; }
    Bytes session_setup_bytes() const override { return Bytes::Zero(); }

   private:
    SlimProtocol inner_;
  };

  ProtoFixture loop_f;
  ProtoFixture batch_f;
  FallbackSlim loop_p(loop_f.sim, loop_f.display, loop_f.input, &loop_f.tap);
  FallbackSlim batch_p(batch_f.sim, batch_f.display, batch_f.input, &batch_f.tap);
  DriveLooped(loop_p);
  DriveBatched(batch_p);
  for (Channel ch : {Channel::kDisplay, Channel::kInput}) {
    EXPECT_EQ(loop_f.tap.messages(ch), batch_f.tap.messages(ch));
    EXPECT_EQ(loop_f.tap.payload_bytes(ch), batch_f.tap.payload_bytes(ch));
  }
}

}  // namespace
}  // namespace tcs
