// Behavioural tests for the X / LBX / RDP protocol models: message granularity,
// compression, caching, and the relative-efficiency properties §6 reports; and for the
// kind table and the pipeline that builds every model.

#include <gtest/gtest.h>

#include <memory>

#include "src/proto/lbx_protocol.h"
#include "src/proto/protocol_pipeline.h"
#include "src/proto/rdp_protocol.h"
#include "src/proto/x_protocol.h"

namespace tcs {
namespace {

// Shared harness: one link per channel direction is unnecessary for byte accounting, so
// both senders share a link.
struct ProtoFixture {
  ProtoFixture()
      : link(sim),
        display(link, HeaderModel::TcpIp()),
        input(link, HeaderModel::TcpIp()),
        tap(Duration::Millis(100)) {}

  template <typename P, typename... Args>
  std::unique_ptr<P> Make(Args&&... args) {
    return std::make_unique<P>(sim, display, input, &tap, Rng(1234),
                               std::forward<Args>(args)...);
  }

  Simulator sim;
  Link link;
  MessageSender display;
  MessageSender input;
  ProtoTap tap;
};

TEST(ProtoTapTest, AccountsPerChannel) {
  ProtoTap tap;
  tap.RecordMessage(Channel::kDisplay, Bytes::Of(100), Bytes::Of(140), TimePoint::Zero());
  tap.RecordMessage(Channel::kInput, Bytes::Of(32), Bytes::Of(72), TimePoint::Zero());
  tap.RecordMessage(Channel::kInput, Bytes::Of(32), Bytes::Of(72), TimePoint::Zero());
  EXPECT_EQ(tap.messages(Channel::kDisplay), 1);
  EXPECT_EQ(tap.messages(Channel::kInput), 2);
  EXPECT_EQ(tap.payload_bytes(Channel::kInput), Bytes::Of(64));
  EXPECT_EQ(tap.counted_bytes(Channel::kDisplay), Bytes::Of(140));
  EXPECT_EQ(tap.total_messages(), 3);
  EXPECT_NEAR(tap.AverageMessageSize(), (140.0 + 72.0 + 72.0) / 3.0, 1e-9);
}

TEST(XProtocolTest, SmallRequestsBatchUntilThreshold) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  // Each rect request is 28 bytes; the 256-byte Xlib buffer flushes after 10 of them.
  for (int i = 0; i < 9; ++i) {
    x->SubmitDraw(DrawCommand::Rect(10, 10));
  }
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 0);
  x->SubmitDraw(DrawCommand::Rect(10, 10));
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 1);
  EXPECT_EQ(f.tap.payload_bytes(Channel::kDisplay), Bytes::Of(280));
}

TEST(XProtocolTest, FlushDrainsPartialBuffer) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  x->SubmitDraw(DrawCommand::Rect(10, 10));
  x->Flush();
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 1);
  EXPECT_EQ(f.tap.payload_bytes(Channel::kDisplay), Bytes::Of(28));
  x->Flush();  // idempotent on empty buffer
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 1);
}

TEST(XProtocolTest, PutImageShipsRawPixels) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  BitmapRef bmp = BitmapRef::Make(42, 100, 50, 0.5);
  x->SubmitDraw(DrawCommand::PutImage(bmp));
  x->Flush();
  // 100x50 at 8bpp = 5000 raw bytes; request = 4 + pad4(16 + 5000).
  EXPECT_GE(f.tap.payload_bytes(Channel::kDisplay), Bytes::Of(5000));
}

TEST(XProtocolTest, EveryInputEventIsA32ByteMessage) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  for (int i = 0; i < 10; ++i) {
    x->SubmitInput(InputEvent::Move(i, i));
  }
  x->SubmitInput(InputEvent::Key(true));
  x->SubmitInput(InputEvent::Key(false));
  EXPECT_EQ(f.tap.messages(Channel::kInput), 12);
  EXPECT_EQ(f.tap.payload_bytes(Channel::kInput), Bytes::Of(12 * 32));
}

TEST(XProtocolTest, SyncFlushesAndElicitsReply) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  x->SubmitDraw(DrawCommand::Rect(5, 5));
  x->SubmitDraw(DrawCommand::Sync(Bytes::Of(400)));
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 1);  // forced flush
  EXPECT_EQ(f.tap.messages(Channel::kInput), 1);    // the reply
  EXPECT_EQ(f.tap.payload_bytes(Channel::kInput), Bytes::Of(400));
}

TEST(LbxProtocolTest, CompressesRelativeToX) {
  ProtoFixture fx;
  ProtoFixture fl;
  auto x = fx.Make<XProtocol>();
  auto lbx = fl.Make<LbxProtocol>();
  for (int i = 0; i < 200; ++i) {
    x->SubmitDraw(DrawCommand::Text(40));
    lbx->SubmitDraw(DrawCommand::Text(40));
  }
  x->Flush();
  lbx->Flush();
  EXPECT_LT(fl.tap.payload_bytes(Channel::kDisplay).count(),
            fx.tap.payload_bytes(Channel::kDisplay).count() * 3 / 4);
}

TEST(LbxProtocolTest, MoreDisplayMessagesThanX) {
  ProtoFixture fx;
  ProtoFixture fl;
  auto x = fx.Make<XProtocol>();
  auto lbx = fl.Make<LbxProtocol>();
  for (int i = 0; i < 100; ++i) {
    x->SubmitDraw(DrawCommand::Text(40));
    lbx->SubmitDraw(DrawCommand::Text(40));
  }
  x->Flush();
  lbx->Flush();
  EXPECT_GT(fl.tap.messages(Channel::kDisplay), fx.tap.messages(Channel::kDisplay));
}

TEST(LbxProtocolTest, DeltaCompressedInputSmallerThanX) {
  ProtoFixture fx;
  ProtoFixture fl;
  auto x = fx.Make<XProtocol>();
  auto lbx = fl.Make<LbxProtocol>();
  for (int i = 0; i < 100; ++i) {
    x->SubmitInput(InputEvent::Move(i, i));
    lbx->SubmitInput(InputEvent::Move(i, i));
  }
  EXPECT_LT(fl.tap.payload_bytes(Channel::kInput).count(),
            fx.tap.payload_bytes(Channel::kInput).count());
}

TEST(LbxProtocolTest, ShortCircuitsSomeReplies) {
  ProtoFixture f;
  auto lbx = f.Make<LbxProtocol>();
  for (int i = 0; i < 200; ++i) {
    lbx->SubmitDraw(DrawCommand::Sync(Bytes::Of(200)));
  }
  // ~30% of replies answered by the proxy: strictly fewer than 200 reply messages.
  EXPECT_LT(f.tap.messages(Channel::kInput), 200);
  EXPECT_GT(f.tap.messages(Channel::kInput), 100);
}

TEST(RdpProtocolTest, OrdersBatchIntoLargePdus) {
  ProtoFixture f;
  auto rdp = f.Make<RdpProtocol>();
  // 12-byte geometry orders: ~117 fit before the 1400-byte flush threshold.
  for (int i = 0; i < 116; ++i) {
    rdp->SubmitDraw(DrawCommand::Rect(10, 10));
  }
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 0);
  for (int i = 0; i < 10; ++i) {
    rdp->SubmitDraw(DrawCommand::Rect(10, 10));
  }
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 1);
  EXPECT_GE(f.tap.payload_bytes(Channel::kDisplay), Bytes::Of(1400));
}

TEST(RdpProtocolTest, GlyphCacheShrinksRepeatedText) {
  ProtoFixture f;
  auto rdp = f.Make<RdpProtocol>();
  rdp->SubmitDraw(DrawCommand::Text(50));
  rdp->Flush();
  Bytes first = f.tap.payload_bytes(Channel::kDisplay);
  for (int i = 0; i < 20; ++i) {
    rdp->SubmitDraw(DrawCommand::Text(50));
  }
  rdp->Flush();
  Bytes later = f.tap.payload_bytes(Channel::kDisplay) - first;
  // After the glyph cache warms, the average text order is a small fraction of the first
  // (indexes, not rasters).
  EXPECT_LT(later.count() / 20, first.count() / 2);
}

TEST(RdpProtocolTest, BitmapCacheHitAvoidsRetransfer) {
  ProtoFixture f;
  auto rdp = f.Make<RdpProtocol>();
  BitmapRef bmp = BitmapRef::Make(7, 200, 100, 0.5);  // 20 KB raw, 10 KB compressed
  rdp->SubmitDraw(DrawCommand::PutImage(bmp));
  rdp->Flush();
  Bytes after_miss = f.tap.payload_bytes(Channel::kDisplay);
  EXPECT_GE(after_miss, bmp.compressed_bytes);
  for (int i = 0; i < 10; ++i) {
    rdp->SubmitDraw(DrawCommand::PutImage(bmp));
  }
  rdp->Flush();
  Bytes after_hits = f.tap.payload_bytes(Channel::kDisplay) - after_miss;
  EXPECT_LE(after_hits, Bytes::Of(10 * 12));
  EXPECT_EQ(rdp->bitmap_cache().hits(), 10);
}

TEST(RdpProtocolTest, InputEventsBatchIntoOnePdu) {
  ProtoFixture f;
  auto rdp = f.Make<RdpProtocol>();
  for (int i = 0; i < 20; ++i) {
    rdp->SubmitInput(InputEvent::Move(i, i));
  }
  EXPECT_EQ(f.tap.messages(Channel::kInput), 0);  // still in the batch window
  f.sim.RunFor(Duration::Millis(60));
  EXPECT_EQ(f.tap.messages(Channel::kInput), 1);
  EXPECT_EQ(f.tap.payload_bytes(Channel::kInput), Bytes::Of(10 + 20 * 4));
}

TEST(RdpProtocolTest, SyncIsLocalNoTraffic) {
  ProtoFixture f;
  auto rdp = f.Make<RdpProtocol>();
  rdp->SubmitDraw(DrawCommand::Sync(Bytes::Of(400)));
  rdp->Flush();
  f.sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(f.tap.total_messages(), 0);
}

TEST(RdpProtocolTest, EncodeCostHigherOnBitmapMiss) {
  ProtoFixture f;
  auto rdp = f.Make<RdpProtocol>();
  Duration total = Duration::Zero();
  rdp->set_encode_cost_sink([&](Duration d) { total += d; });
  BitmapRef bmp = BitmapRef::Make(9, 200, 120, 0.5);  // 24000 raw bytes
  rdp->SubmitDraw(DrawCommand::PutImage(bmp));
  Duration miss_cost = total;
  total = Duration::Zero();
  rdp->SubmitDraw(DrawCommand::PutImage(bmp));
  Duration hit_cost = total;
  EXPECT_GT(miss_cost, hit_cost * 10);
  // 24000 bytes at 500 us/KiB ~ 11.7 ms of encode work.
  EXPECT_GT(miss_cost, Duration::Millis(5));
}

TEST(SessionSetupBytesTest, MatchPaperConstants) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  auto rdp = f.Make<RdpProtocol>();
  EXPECT_EQ(x->session_setup_bytes(), Bytes::Of(16312));
  EXPECT_EQ(rdp->session_setup_bytes(), Bytes::Of(45328));
}


TEST(XProtocolTest, RequestProfileAccountsEveryRequest) {
  ProtoFixture f;
  auto x = f.Make<XProtocol>();
  x->SubmitDraw(DrawCommand::Text(10));
  x->SubmitDraw(DrawCommand::Rect(5, 5));
  x->SubmitDraw(DrawCommand::Rect(5, 5));
  x->SubmitDraw(DrawCommand::PutImage(BitmapRef::Make(1, 10, 10, 0.5)));
  x->Flush();
  int64_t total = 0;
  for (const auto& [opcode, prof] : x->request_profile()) {
    total += prof.count;
    EXPECT_GT(prof.bytes, 0);
  }
  EXPECT_EQ(total, x->requests_encoded());
  EXPECT_EQ(x->request_profile().at(70).count, 2);  // PolyFillRectangle
  EXPECT_EQ(x->request_profile().at(74).count, 1);  // PolyText8
  EXPECT_EQ(x->request_profile().at(72).count, 1);  // PutImage
  EXPECT_STREQ(XProtocol::OpcodeName(72), "PutImage");
  EXPECT_STREQ(XProtocol::OpcodeName(74), "PolyText8");
}

// Relative-efficiency property on a mixed mini-workload: RDP < LBX < X in display bytes.
TEST(ProtocolComparisonTest, ByteEfficiencyOrdering) {
  auto run = [](auto make_proto) {
    ProtoFixture f;
    auto p = make_proto(f);
    Rng rng(55);
    // Text/widget interaction, like the paper's WordPerfect + control panel mix: typing,
    // occasional geometry, and recurring widget redraws (toolbar icons from a small pool)
    // that X must re-raster but RDP serves from the bitmap cache.
    for (int step = 0; step < 300; ++step) {
      p->SubmitDraw(DrawCommand::Text(static_cast<int>(rng.NextBelow(30)) + 20));
      p->SubmitDraw(DrawCommand::Text(static_cast<int>(rng.NextBelow(20)) + 10));
      if (step % 2 == 0) {
        p->SubmitDraw(DrawCommand::Rect(40, 20));
      }
      if (step % 5 == 0) {
        for (int k = 0; k < 3; ++k) {
          BitmapRef icon = BitmapRef::Make(1000 + (step / 5 + k) % 10, 32, 32, 0.6);
          p->SubmitDraw(DrawCommand::PutImage(icon));
        }
      }
      if (step % 10 == 9) {
        p->Flush();  // think-time pause drains all buffers
      }
    }
    p->Flush();
    return f.tap.counted_bytes(Channel::kDisplay).count();
  };
  int64_t x_bytes = run([](ProtoFixture& f) { return f.Make<XProtocol>(); });
  int64_t lbx_bytes = run([](ProtoFixture& f) { return f.Make<LbxProtocol>(); });
  int64_t rdp_bytes = run([](ProtoFixture& f) { return f.Make<RdpProtocol>(); });
  EXPECT_LT(rdp_bytes, lbx_bytes);
  EXPECT_LT(lbx_bytes, x_bytes);
}

// The one kind table: every word parses back to its kind, and the pipeline builds the
// encoder whose name the table prints for that kind.
TEST(ProtocolKindTest, TableMatchesTheEncoderThePipelineBuilds) {
  for (const ProtocolNames& p : kProtocols) {
    EXPECT_EQ(ProtocolFromWord(p.word), p.kind);
    EXPECT_STREQ(ProtocolWord(p.kind), p.word);
    EXPECT_EQ(ProtocolHarness(p.kind, 1).protocol().name(), ProtocolName(p.kind));
  }
  EXPECT_EQ(ProtocolFromWord("RDP"), std::nullopt);  // words are lower case
  EXPECT_EQ(ProtocolFromWord(""), std::nullopt);
}

TEST(ProtocolHarnessTest, DrainFlushesTheEncoderAndLeavesNothingPending) {
  for (const ProtocolNames& p : kProtocols) {
    ProtocolHarness h(p.kind, 1);
    h.protocol().SubmitInput(InputEvent::Key(true));
    h.protocol().SubmitDraw(DrawCommand::Text(8));
    h.Drain();
    EXPECT_EQ(h.sim.pending_events(), 0u) << p.word;
    EXPECT_GT(h.tap.messages(Channel::kInput), 0) << p.word;
    // VNC ships damage only on a pull: Drain answers one last pull for it.
    EXPECT_GT(h.tap.messages(Channel::kDisplay), 0) << p.word;
  }
}

}  // namespace
}  // namespace tcs
