#include "src/workload/webpage.h"

#include <cassert>

namespace tcs {

Marquee::Marquee(Simulator& sim, DisplayProtocol& protocol, MarqueeConfig config)
    : protocol_(protocol), config_(config), task_(sim, config.tick, [this] { Tick(); }) {
  assert(config_.strip_count > 0);
  strips_.reserve(static_cast<size_t>(config_.strip_count));
  for (int s = 0; s < config_.strip_count; ++s) {
    strips_.push_back(BitmapRef::Make((config_.id << 21) ^ static_cast<uint64_t>(s),
                                      config_.width, config_.height,
                                      config_.compression_ratio));
  }
}

Bytes Marquee::StripSetBytes() const {
  Bytes total = Bytes::Zero();
  for (const BitmapRef& strip : strips_) {
    total += strip.compressed_bytes;
  }
  return total;
}

void Marquee::Start(Duration initial_delay) {
  task_.Start(initial_delay);
}

void Marquee::Stop() {
  task_.Stop();
}

void Marquee::Tick() {
  ++ticks_;
  const BitmapRef& strip = strips_[static_cast<size_t>(next_strip_)];
  next_strip_ = (next_strip_ + 1) % config_.strip_count;
  // Fresh pixels for the newly exposed edge column every tick, never cacheable.
  BitmapRef edge = BitmapRef::Make((config_.id << 42) ^ ++edge_counter_, config_.width,
                                   config_.edge_height, config_.compression_ratio);
  // One batch per tick: scroll the band one step left, redraw from the cyclic strip set
  // (a bitmap cache holds these, in isolation), then paint the exposed edge column.
  const DrawCommand tick_draws[] = {
      DrawCommand::CopyArea(config_.width, config_.height),
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
