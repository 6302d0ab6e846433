#include "src/workload/animation.h"

#include <cassert>

namespace tcs {

namespace {
uint64_t FrameHash(uint64_t animation_id, int frame) {
  // Stable, collision-free across animations with distinct ids.
  return (animation_id << 20) ^ static_cast<uint64_t>(frame) ^ 0xA11CE5ull << 40;
}
}  // namespace

Animation::Animation(Simulator& sim, DisplayProtocol& protocol, AnimationConfig config)
    : protocol_(protocol),
      config_(config),
      task_(sim, config.frame_period, [this] { DrawNextFrame(); }) {
  assert(config_.frame_count > 0);
  frames_.reserve(static_cast<size_t>(config_.frame_count));
  for (int f = 0; f < config_.frame_count; ++f) {
    frames_.push_back(BitmapRef::Make(FrameHash(config_.id, f), config_.width,
                                      config_.height, config_.compression_ratio));
  }
}

void Animation::Start(Duration initial_delay) {
  task_.Start(initial_delay);
}

void Animation::Stop() {
  task_.Stop();
}

void Animation::DrawNextFrame() {
  const BitmapRef& frame = frames_[static_cast<size_t>(next_frame_)];
  next_frame_ = (next_frame_ + 1) % config_.frame_count;
  if (gate_ && !gate_()) {
    return;
  }
  ++frames_drawn_;
  protocol_.SubmitDraw(DrawCommand::PutImage(frame));
  protocol_.Flush();
}

}  // namespace tcs
