// Backpressure-driven graceful degradation.
//
// On a WAN-degraded link the display channel falls behind: the bufferbloat queue fills,
// the reliable channel's in-flight window grows, and every user's latency climbs
// together. The DegradationController watches one scalar pressure signal (bytes of
// unretired display backlog, supplied by the server) and moves the per-session pipelines
// through a small ladder of increasingly aggressive service levels:
//
//   0 kNormal          full service
//   1 kCoalesce        hold the pipeline between passes so keystrokes batch harder
//   2 kDropAnimation   additionally drop marquee/animation frames (keep 1 in N)
//   3 kHardCache       additionally force harder bitmap caching (smaller payloads)
//   4 kPauseBackground additionally pause background (non-interactive) sessions
//
// Transitions are hysteretic: upshifts are immediate (pressure crossing threshold(k) =
// k * level_step jumps straight to k), but a downshift needs `recover_polls` consecutive
// polls below recover_fraction * threshold(current) — so a link hovering at a boundary
// never flaps. The controller consumes no randomness and polls on virtual time only, so
// its transition log is byte-identical across reruns and --jobs values.

#ifndef TCS_SRC_SESSION_DEGRADATION_H_
#define TCS_SRC_SESSION_DEGRADATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/periodic.h"
#include "src/sim/simulator.h"
#include "src/sim/units.h"

namespace tcs {

class FlightRecorder;

struct DegradationConfig {
  bool enabled = false;
  // How often the pressure signal is sampled.
  Duration poll_interval = Duration::Millis(100);
  // Arming delay before the first poll: session setup (login storms, initial desktop
  // paints) floods the link with a one-off burst that is not WAN congestion, so the
  // controller starts watching only once steady state is reached. Zero = first poll
  // after one poll_interval.
  Duration start_delay = Duration::Zero();
  // Pressure step per level: level k engages at pressure >= k * level_step bytes.
  Bytes level_step = Bytes::KiB(48);
  // Hysteresis: recovery requires pressure below recover_fraction * threshold(level)...
  double recover_fraction = 0.5;
  // ...for this many consecutive polls, and then drops exactly one level.
  int recover_polls = 5;
  // Lever 1 (kCoalesce+): extra hold between pipeline passes while keystrokes pend.
  Duration coalesce_hold = Duration::Millis(40);
  // Lever 2 (kDropAnimation+): keep 1 of every N animation/marquee frames.
  int animation_keep_one_in = 3;
  // Lever 3 (kHardCache+): scale factor applied to bitmap compression (payload shrink).
  double cache_boost = 2.0;
};

// Throws tcs::ConfigError on a non-positive poll interval, level step, recover_polls,
// animation_keep_one_in, a recover_fraction outside (0, 1), or cache_boost < 1.
DegradationConfig Validated(DegradationConfig config);

enum class DegradationLevel : int {
  kNormal = 0,
  kCoalesce = 1,
  kDropAnimation = 2,
  kHardCache = 3,
  kPauseBackground = 4,
};

inline constexpr int kMaxDegradationLevel =
    static_cast<int>(DegradationLevel::kPauseBackground);

struct DegradationTransition {
  TimePoint at;
  int from = 0;
  int to = 0;
  int64_t pressure_bytes = 0;  // the sample that caused the move
};

class DegradationController {
 public:
  // `pressure_bytes` is sampled every poll; it must be pure w.r.t. virtual time (no
  // randomness) for the controller's determinism guarantee to hold.
  DegradationController(Simulator& sim, DegradationConfig config,
                        std::function<int64_t()> pressure_bytes);

  DegradationController(const DegradationController&) = delete;
  DegradationController& operator=(const DegradationController&) = delete;

  // Arms the periodic poll. Safe to call once at run start; Stop() cancels it.
  void Start();
  void Stop();

  // One pressure sample + level update. Driven by the periodic task; exposed so property
  // tests can step the ladder directly with synthetic pressure.
  void Poll();

  int level() const { return level_; }
  DegradationLevel Level() const { return static_cast<DegradationLevel>(level_); }

  // --- Levers, consulted by the server pipeline and background sessions ---

  // Extra hold before the next pipeline pass while keystrokes pend (zero below
  // kCoalesce). Lands in the degradation-hold attribution stage, so degraded runs do
  // not masquerade as scheduler contention in blame digests.
  Duration CoalesceHold() const {
    return level_ >= static_cast<int>(DegradationLevel::kCoalesce)
               ? config_.coalesce_hold
               : Duration::Zero();
  }
  // Whether the next animation/marquee frame should be dropped. Deterministic
  // counter-based thinning: below kDropAnimation every frame is kept.
  bool ShouldDropAnimationFrame();
  // Bitmap compression multiplier (1.0 below kHardCache).
  double CacheBoost() const {
    return level_ >= static_cast<int>(DegradationLevel::kHardCache) ? config_.cache_boost
                                                                    : 1.0;
  }
  // True while background (non-interactive) sessions should stop emitting.
  bool BackgroundPaused() const {
    return level_ >= static_cast<int>(DegradationLevel::kPauseBackground);
  }

  // --- Accounting ---

  const std::vector<DegradationTransition>& transitions() const { return transitions_; }
  int64_t upshifts() const { return upshifts_; }
  int64_t downshifts() const { return downshifts_; }
  int64_t animation_frames_dropped() const { return animation_frames_dropped_; }
  int64_t polls() const { return polls_; }
  // Virtual time spent at or above kCoalesce so far (closed intervals only... the final
  // open interval is closed by the caller sampling at run end via DegradedTimeThrough).
  Duration DegradedTimeThrough(TimePoint now) const;

  // Fired on every level change, after the transition is logged.
  void set_on_transition(std::function<void(int from, int to, TimePoint at)> fn) {
    on_transition_ = std::move(fn);
  }

  // Observability: transitions become session-category instants (and flight records).
  void SetTracer(Tracer* tracer);
  void SetFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  void MoveTo(int new_level, int64_t pressure);

  Simulator& sim_;
  DegradationConfig config_;
  std::function<int64_t()> pressure_bytes_;
  PeriodicTask poll_task_;
  Tracer* tracer_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  TraceTrack trace_track_;
  int level_ = 0;
  int calm_polls_ = 0;
  int64_t animation_counter_ = 0;
  int64_t animation_frames_dropped_ = 0;
  int64_t upshifts_ = 0;
  int64_t downshifts_ = 0;
  int64_t polls_ = 0;
  TimePoint degraded_since_ = TimePoint::Zero();  // valid while level_ > 0
  Duration degraded_closed_ = Duration::Zero();
  std::vector<DegradationTransition> transitions_;
  std::function<void(int, int, TimePoint)> on_transition_;
};

}  // namespace tcs

#endif  // TCS_SRC_SESSION_DEGRADATION_H_
