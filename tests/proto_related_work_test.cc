// Tests for the §7 related-work protocol models: SLIM (SunRay) and VNC (RFB).

#include <gtest/gtest.h>

#include <memory>

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

  Simulator sim;
  Link link;
  MessageSender display;
  MessageSender input;
  ProtoTap tap;
};

TEST(SlimProtocolTest, OneMessagePerCommand) {
  ProtoFixture f;
  SlimProtocol slim(f.sim, f.display, f.input, &f.tap);
  slim.SubmitDraw(DrawCommand::Rect(10, 10));
  slim.SubmitDraw(DrawCommand::Line(20));
  slim.SubmitDraw(DrawCommand::CopyArea(100, 100));
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 3);
  EXPECT_EQ(slim.commands_encoded(), 3);
}

TEST(SlimProtocolTest, TextShipsAsTwoColorBitmap) {
  ProtoFixture f;
  SlimProtocol slim(f.sim, f.display, f.input, &f.tap);
  slim.SubmitDraw(DrawCommand::Text(10));
  // 10 glyphs of 8x16 at 1 bpp = 160 bytes + colors + header.
  EXPECT_GE(f.tap.payload_bytes(Channel::kDisplay), Bytes::Of(160));
  EXPECT_LE(f.tap.payload_bytes(Channel::kDisplay), Bytes::Of(200));
}

TEST(SlimProtocolTest, NoBitmapCache) {
  ProtoFixture f;
  SlimProtocol slim(f.sim, f.display, f.input, &f.tap);
  BitmapRef bmp = BitmapRef::Make(5, 100, 50, 0.5);
  slim.SubmitDraw(DrawCommand::PutImage(bmp));
  Bytes first = f.tap.payload_bytes(Channel::kDisplay);
  slim.SubmitDraw(DrawCommand::PutImage(bmp));
  Bytes second = f.tap.payload_bytes(Channel::kDisplay) - first;
  // The identical bitmap costs the same raw transfer again.
  EXPECT_EQ(second, first);
  EXPECT_GE(first, bmp.raw_bytes);
}

TEST(SlimProtocolTest, SyncIsLocal) {
  ProtoFixture f;
  SlimProtocol slim(f.sim, f.display, f.input, &f.tap);
  slim.SubmitDraw(DrawCommand::Sync(Bytes::Of(500)));
  EXPECT_EQ(f.tap.total_messages(), 0);
}

TEST(VncProtocolTest, NoUpdateWithoutPull) {
  ProtoFixture f;
  VncProtocol vnc(f.sim, f.display, f.input, &f.tap);
  vnc.SubmitDraw(DrawCommand::Rect(100, 100));
  f.sim.RunFor(Duration::Seconds(1));
  // Pull never started: nothing ships.
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 0);
}

TEST(VncProtocolTest, PullShipsCoalescedUpdate) {
  ProtoFixture f;
  VncProtocol vnc(f.sim, f.display, f.input, &f.tap);
  vnc.StartClientPull();
  vnc.SubmitDraw(DrawCommand::Rect(100, 100));
  vnc.SubmitDraw(DrawCommand::Rect(50, 50));
  f.sim.RunFor(Duration::Millis(150));  // one pull at t=100ms
  EXPECT_EQ(vnc.updates_sent(), 1);
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 1);
  // Input channel carries the update request.
  EXPECT_GE(f.tap.messages(Channel::kInput), 1);
  vnc.StopClientPull();
}

TEST(VncProtocolTest, IdleScreenShipsNothing) {
  ProtoFixture f;
  VncProtocol vnc(f.sim, f.display, f.input, &f.tap);
  vnc.StartClientPull();
  f.sim.RunFor(Duration::Seconds(2));
  vnc.StopClientPull();
  EXPECT_EQ(vnc.updates_sent(), 0);
  EXPECT_EQ(f.tap.messages(Channel::kDisplay), 0);
}

TEST(VncProtocolTest, FastAnimationCoalescesToPullRate) {
  ProtoFixture f;
  VncProtocol vnc(f.sim, f.display, f.input, &f.tap);
  vnc.StartClientPull();
  // 20 Hz damage against a 10 Hz pull: at most one update per pull.
  for (int i = 0; i < 40; ++i) {
    f.sim.At(TimePoint::FromMicros(i * 50000),
             [&vnc] { vnc.SubmitDraw(DrawCommand::Rect(468, 60)); });
  }
  f.sim.RunUntil(TimePoint::Zero() + Duration::Seconds(2));
  vnc.StopClientPull();
  EXPECT_LE(vnc.updates_sent(), 20);
  EXPECT_GE(vnc.updates_sent(), 15);
}

TEST(VncProtocolTest, DirtyBytesCappedAtFramebuffer) {
  ProtoFixture f;
  VncProtocol vnc(f.sim, f.display, f.input, &f.tap);
  vnc.StartClientPull();
  // 100 rasters of 40,000 bytes: eight times the 800x600 8-bpp framebuffer.
  for (int i = 0; i < 100; ++i) {
    vnc.SubmitDraw(DrawCommand::PutImage(BitmapRef::Make(100 + i, 200, 200, 0.5)));
  }
  f.sim.RunFor(Duration::Millis(150));
  vnc.StopClientPull();
  // One update, encoded (at 0.45) from exactly one framebuffer's worth of dirty pixels,
  // behind the 16-byte update header and 16 rect headers of 12 bytes.
  EXPECT_EQ(vnc.updates_sent(), 1);
  EXPECT_EQ(f.tap.payload_bytes(Channel::kDisplay),
            Bytes::Of(800 * 600 * 45 / 100 + 16 + 16 * 12));
}

TEST(RelatedWorkComparisonTest, SlimRoughlyEquivalentToX) {
  // The paper's §7 placement: SLIM ~ X in network load, behind RDP.
  auto run = [](auto makeProto) {
    ProtoFixture f;
    auto proto = makeProto(f);
    Rng rng(9);
    for (int step = 0; step < 200; ++step) {
      proto->SubmitDraw(DrawCommand::Text(static_cast<int>(rng.NextBelow(20)) + 10));
      if (step % 3 == 0) {
        proto->SubmitDraw(DrawCommand::Rect(60, 20));
      }
      if (step % 10 == 0) {
        proto->SubmitDraw(
            DrawCommand::PutImage(BitmapRef::Make(1000 + step % 8, 32, 32, 0.6)));
      }
      proto->Flush();
    }
    return f.tap.counted_bytes(Channel::kDisplay).count();
  };
  int64_t x_bytes = run([](ProtoFixture& f) {
    return std::make_unique<XProtocol>(f.sim, f.display, f.input, &f.tap, Rng(3));
  });
  int64_t slim_bytes = run([](ProtoFixture& f) {
    return std::make_unique<SlimProtocol>(f.sim, f.display, f.input, &f.tap);
  });
  int64_t rdp_bytes = run([](ProtoFixture& f) {
    return std::make_unique<RdpProtocol>(f.sim, f.display, f.input, &f.tap, Rng(3));
  });
  // Same order of magnitude as X (within 3x either way), clearly behind RDP.
  EXPECT_LT(slim_bytes, x_bytes * 3);
  EXPECT_GT(slim_bytes, x_bytes / 3);
  EXPECT_GT(slim_bytes, rdp_bytes * 2);
}

}  // namespace
}  // namespace tcs
