// Animated user-interface elements (§6.1.3): looping animated GIFs (banner ads), scrolling
// marquees/tickers, and the parameterized frame-count animations of Figure 7.
//
// An Animation repeatedly draws the next frame of a cyclic frame set through a
// DisplayProtocol. Frames are identified by content hash, so a protocol with a bitmap
// cache (RDP) can serve repeats from the client while X/LBX must re-send pixels.

#ifndef TCS_SRC_WORKLOAD_ANIMATION_H_
#define TCS_SRC_WORKLOAD_ANIMATION_H_

#include <cstdint>
#include <vector>

#include "src/proto/display_protocol.h"
#include "src/sim/periodic.h"

namespace tcs {

struct AnimationConfig {
  // Distinguishes this animation's frames from all others' (mixed into the hash).
  uint64_t id = 1;
  int frame_count = 10;
  Duration frame_period = Duration::Millis(50);  // 20 Hz, like the Figure 5 GIF
  int width = 468;
  int height = 60;  // the classic banner-ad geometry
  // RDP raster codec effectiveness on these pixels.
  double compression_ratio = 0.85;
  bool loop = true;
};

class Animation {
 public:
  Animation(Simulator& sim, DisplayProtocol& protocol, AnimationConfig config = {});

  Animation(const Animation&) = delete;
  Animation& operator=(const Animation&) = delete;

  void Start(Duration initial_delay = Duration::Zero());
  void Stop();
  bool IsRunning() const { return task_.IsRunning(); }

  int64_t frames_drawn() const { return frames_drawn_; }
  const AnimationConfig& config() const { return config_; }
  // The frame set this animation cycles through.
  const std::vector<BitmapRef>& frames() const { return frames_; }

  // Optional per-tick gate: return false to skip this tick's frame (the cycle position
  // still advances, as a real player dropping frames would). Degradation controllers use
  // this to thin or pause background animations under backpressure.
  void set_frame_gate(std::function<bool()> gate) { gate_ = std::move(gate); }

 private:
  void DrawNextFrame();

  DisplayProtocol& protocol_;
  AnimationConfig config_;
  std::vector<BitmapRef> frames_;
  std::function<bool()> gate_;
  int next_frame_ = 0;
  int64_t frames_drawn_ = 0;
  PeriodicTask task_;
};

}  // namespace tcs

#endif  // TCS_SRC_WORKLOAD_ANIMATION_H_
