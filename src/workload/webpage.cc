#include "src/workload/webpage.h"

namespace tcs {

namespace {

// The ticker's bitmaps hash apart from the banner's (id 1) by this id.
constexpr uint64_t kMarqueeId = 2;
constexpr int kStripCount = 95;
constexpr int kWidth = 468;
constexpr int kHeight = 40;
constexpr int kEdgeHeight = 2;
constexpr Duration kTick = Duration::Millis(100);
// RDP raster codec effectiveness on the ticker's pixels.
constexpr double kCompressionRatio = 0.8;

}  // namespace

Marquee::Marquee(Simulator& sim, DisplayProtocol& protocol)
    : protocol_(protocol), task_(sim, kTick, [this] { Tick(); }) {
  strips_.reserve(static_cast<size_t>(kStripCount));
  for (int s = 0; s < kStripCount; ++s) {
    strips_.push_back(BitmapRef::Make((kMarqueeId << 21) ^ static_cast<uint64_t>(s),
                                      kWidth, kHeight, kCompressionRatio));
  }
}

void Marquee::Start(Duration initial_delay) {
  task_.Start(initial_delay);
}

void Marquee::Stop() {
  task_.Stop();
}

void Marquee::Tick() {
  const BitmapRef& strip = strips_[static_cast<size_t>(next_strip_)];
  next_strip_ = (next_strip_ + 1) % kStripCount;
  // Fresh pixels for the newly exposed edge column every tick, never cacheable.
  BitmapRef edge = BitmapRef::Make((kMarqueeId << 42) ^ ++edge_counter_, kWidth,
                                   kEdgeHeight, kCompressionRatio);
  // One batch per tick: scroll the band one step left, redraw from the cyclic strip set
  // (a bitmap cache holds these, in isolation), then paint the exposed edge column.
  const DrawCommand tick_draws[] = {
      DrawCommand::CopyArea(kWidth, kHeight),
      DrawCommand::PutImage(strip),
      DrawCommand::PutImage(edge),
  };
  protocol_.SubmitDrawBatch(tick_draws);
  protocol_.Flush();
}

WebPage::WebPage(Simulator& sim, DisplayProtocol& protocol, WebPageConfig config) {
  if (config.banner) {
    AnimationConfig banner;
    banner.id = 1;
    banner.frame_count = 10;
    banner.frame_period = Duration::Millis(500);  // banner GIFs flip ~2 fps
    banner.width = 468;
    banner.height = 60;
    banner.compression_ratio = 0.85;
    banner_.emplace(sim, protocol, banner);
  }
  if (config.marquee) {
    marquee_.emplace(sim, protocol);
  }
}

void WebPage::Open() {
  if (banner_) {
    banner_->Start();
  }
  if (marquee_) {
    // Offset phases so banner frames and ticker strips interleave in the request stream.
    marquee_->Start(Duration::Millis(37));
  }
}

void WebPage::Close() {
  if (banner_) {
    banner_->Stop();
  }
  if (marquee_) {
    marquee_->Stop();
  }
}

}  // namespace tcs
