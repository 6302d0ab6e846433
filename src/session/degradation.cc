#include "src/session/degradation.h"

#include <algorithm>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/util/config_error.h"

namespace tcs {

DegradationConfig Validated(DegradationConfig config) {
  if (!(config.poll_interval > Duration::Zero())) {
    throw ConfigError("DegradationConfig.poll_interval", "poll interval must be positive");
  }
  if (config.level_step.count() <= 0) {
    throw ConfigError("DegradationConfig.level_step", "level step must be positive");
  }
  if (config.recover_fraction <= 0.0 || config.recover_fraction >= 1.0) {
    throw ConfigError("DegradationConfig.recover_fraction",
                      "recover fraction must be in (0, 1)");
  }
  if (config.recover_polls < 1) {
    throw ConfigError("DegradationConfig.recover_polls",
                      "need at least one calm poll to recover");
  }
  if (config.animation_keep_one_in < 1) {
    throw ConfigError("DegradationConfig.animation_keep_one_in",
                      "must keep at least 1 in N frames");
  }
  if (config.cache_boost < 1.0) {
    throw ConfigError("DegradationConfig.cache_boost",
                      "cache boost must not inflate payloads");
  }
  if (!(config.coalesce_hold >= Duration::Zero())) {
    throw ConfigError("DegradationConfig.coalesce_hold", "hold cannot be negative");
  }
  if (config.start_delay < Duration::Zero()) {
    throw ConfigError("DegradationConfig.start_delay", "arming delay cannot be negative");
  }
  return config;
}

DegradationController::DegradationController(Simulator& sim, DegradationConfig config,
                                             std::function<int64_t()> pressure_bytes)
    : sim_(sim),
      config_(Validated(std::move(config))),
      pressure_bytes_(std::move(pressure_bytes)),
      poll_task_(sim, config_.poll_interval, [this] { Poll(); }) {}

void DegradationController::Start() {
  poll_task_.Start(config_.start_delay > Duration::Zero() ? config_.start_delay
                                                          : config_.poll_interval);
}

void DegradationController::Stop() { poll_task_.Stop(); }

void DegradationController::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    trace_track_ = tracer_->RegisterTrack("session", "degradation");
  }
}

void DegradationController::Poll() {
  ++polls_;
  int64_t pressure = pressure_bytes_();
  const int64_t step = config_.level_step.count();
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
  // Hysteretic recovery: one level at a time, and only after recover_polls consecutive
  // samples comfortably below the current level's engage threshold.
  int64_t recover_below = static_cast<int64_t>(
      config_.recover_fraction * static_cast<double>(level_) * static_cast<double>(step));
  if (pressure < recover_below) {
    ++calm_polls_;
    if (calm_polls_ >= config_.recover_polls) {
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
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceCategory::kSession,
                     new_level > old_level ? "degrade" : "recover", trace_track_, now,
                     "from", old_level, "to", new_level);
  }
  if (recorder_ != nullptr) {
    recorder_->Instant(TraceCategory::kSession,
                       new_level > old_level ? "degrade" : "recover", now, 0, old_level,
                       new_level);
  }
  if (on_transition_) {
    on_transition_(old_level, new_level, now);
  }
}

bool DegradationController::ShouldDropAnimationFrame() {
  if (level_ < static_cast<int>(DegradationLevel::kDropAnimation)) {
    return false;
  }
  // Keep frame 0, N, 2N, ... of the degraded stretch; drop the rest.
  bool drop = (animation_counter_ % config_.animation_keep_one_in) != 0;
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
