#include "src/session/degradation.h"

#include <algorithm>
#include <utility>

#include "src/util/config_error.h"

namespace tcs {

namespace {

// How often the pressure signal is sampled, and when the first sample is taken.
constexpr Duration kPollInterval = Duration::Millis(100);
constexpr Duration kStartDelay = Duration::Seconds(2);
// Hysteresis: recovery requires pressure below this fraction of the current level's
// engage threshold for kRecoverPolls consecutive polls, and then drops one level.
constexpr double kRecoverFraction = 0.5;
constexpr int kRecoverPolls = 5;
// The levers: the hold between pipeline passes (kCoalesce+), one animation or marquee
// frame kept in every kAnimationKeepOneIn (kDropAnimation+), and the bitmap compression
// multiplier (kHardCache+).
constexpr Duration kCoalesceHold = Duration::Millis(40);
constexpr int kAnimationKeepOneIn = 3;
constexpr double kCacheBoost = 2.0;

}  // namespace

DegradationConfig Validated(DegradationConfig config) {
  if (config.level_step.count() <= 0) {
    throw ConfigError("DegradationConfig.level_step", "level step must be positive");
  }
  return config;
}

DegradationController::DegradationController(Simulator& sim, DegradationConfig config,
                                             std::function<int64_t()> pressure_bytes)
    : sim_(sim),
      level_step_(Validated(config).level_step),
      pressure_bytes_(std::move(pressure_bytes)),
      poll_task_(sim, kPollInterval, [this] { Poll(); }) {}

void DegradationController::Start() { poll_task_.Start(kStartDelay); }

void DegradationController::Attach(Emitter emit) {
  emit_ = emit;
  trace_track_ = emit_.Track("session", "degradation");
}

void DegradationController::Poll() {
  int64_t pressure = pressure_bytes_();
  const int64_t step = level_step_.count();
  // Upshift first, and all the way: sustained pressure crossing several thresholds in
  // one poll interval engages the matching level immediately (monotone in pressure).
  int target = static_cast<int>(pressure / step);
  target = std::min(target, kMaxDegradationLevel);
  if (target > level_) {
    calm_polls_ = 0;
    MoveTo(target, pressure);
    return;
  }
  if (level_ == 0) {
    return;
  }
  // Hysteretic recovery: one level at a time, and only after kRecoverPolls consecutive
  // samples comfortably below the current level's engage threshold.
  int64_t recover_below = static_cast<int64_t>(
      kRecoverFraction * static_cast<double>(level_) * static_cast<double>(step));
  if (pressure < recover_below) {
    ++calm_polls_;
    if (calm_polls_ >= kRecoverPolls) {
      calm_polls_ = 0;
      MoveTo(level_ - 1, pressure);
    }
  } else {
    calm_polls_ = 0;
  }
}

void DegradationController::MoveTo(int new_level, int64_t pressure) {
  int old_level = level_;
  TimePoint now = sim_.Now();
  if (old_level == 0 && new_level > 0) {
    degraded_since_ = now;
  } else if (old_level > 0 && new_level == 0) {
    degraded_closed_ += now - degraded_since_;
  }
  level_ = new_level;
  if (new_level > old_level) {
    ++upshifts_;
  } else {
    ++downshifts_;
  }
  transitions_.push_back(DegradationTransition{now, old_level, new_level, pressure});
  emit_.Instant(TraceCategory::kSession, new_level > old_level ? "degrade" : "recover",
                trace_track_, now, {"from", old_level}, {"to", new_level});
  if (on_transition_) {
    on_transition_(old_level, new_level, now);
  }
}

Duration DegradationController::CoalesceHold() const {
  return level_ >= static_cast<int>(DegradationLevel::kCoalesce) ? kCoalesceHold
                                                                 : Duration::Zero();
}

double DegradationController::CacheBoost() const {
  return level_ >= static_cast<int>(DegradationLevel::kHardCache) ? kCacheBoost : 1.0;
}

bool DegradationController::ShouldDropAnimationFrame() {
  if (level_ < static_cast<int>(DegradationLevel::kDropAnimation)) {
    return false;
  }
  // Keep frame 0, N, 2N, ... of the degraded stretch; drop the rest.
  bool drop = (animation_counter_ % kAnimationKeepOneIn) != 0;
  ++animation_counter_;
  if (drop) {
    ++animation_frames_dropped_;
  }
  return drop;
}

Duration DegradationController::DegradedTimeThrough(TimePoint now) const {
  Duration total = degraded_closed_;
  if (level_ > 0 && now > degraded_since_) {
    total += now - degraded_since_;
  }
  return total;
}

}  // namespace tcs
