#include "src/cpu/svr4_scheduler.h"

#include "src/util/config_error.h"

namespace tcs {

Svr4InteractiveScheduler::Svr4InteractiveScheduler(Svr4SchedulerConfig config)
    : config_(config) {
  if (!(config_.quantum > Duration::Zero())) {
    throw ConfigError("Svr4SchedulerConfig.quantum", "quantum must be positive");
  }
}

bool Svr4InteractiveScheduler::IsInteractive(const Thread& t) const {
  if (t.thread_class() == ThreadClass::kGui || t.thread_class() == ThreadClass::kDaemon) {
    return true;
  }
  return t.interactivity >= config_.ia_threshold;
}

void Svr4InteractiveScheduler::OnReady(Thread& t, WakeReason /*reason*/) {
  if (IsInteractive(t)) {
    ia_.push_back(&t);
  } else {
    ts_.push_back(&t);
  }
}

void Svr4InteractiveScheduler::OnPreempted(Thread& t) {
  if (IsInteractive(t)) {
    ia_.push_front(&t);
  } else {
    ts_.push_front(&t);
  }
}

void Svr4InteractiveScheduler::OnQuantumExpired(Thread& t) {
  // Burning a whole quantum is evidence of non-interactivity.
  bool was_interactive = IsInteractive(t);
  t.interactivity *= (1.0 - config_.score_alpha);
  if (tracer_ != nullptr && was_interactive && !IsInteractive(t)) {
    tracer_->Instant(TraceCategory::kSched, "ia-demote", trace_track_, t.last_ready_at(),
                     "thread", static_cast<int64_t>(t.id()));
  }
  OnReady(t, WakeReason::kOther);
}

void Svr4InteractiveScheduler::OnBlocked(Thread& t) {
  // Blocking before quantum exhaustion is evidence of interactivity.
  bool was_interactive = IsInteractive(t);
  t.interactivity = t.interactivity * (1.0 - config_.score_alpha) + config_.score_alpha;
  if (tracer_ != nullptr && !was_interactive && IsInteractive(t)) {
    tracer_->Instant(TraceCategory::kSched, "ia-promote", trace_track_,
                     t.last_blocked_at(), "thread", static_cast<int64_t>(t.id()));
  }
}

Thread* Svr4InteractiveScheduler::PickNext() {
  if (!ia_.empty()) {
    Thread* t = ia_.front();
    ia_.pop_front();
    return t;
  }
  if (!ts_.empty()) {
    Thread* t = ts_.front();
    ts_.pop_front();
    return t;
  }
  return nullptr;
}

Duration Svr4InteractiveScheduler::QuantumFor(const Thread& /*t*/) const {
  return config_.quantum;
}

bool Svr4InteractiveScheduler::ShouldPreempt(const Thread& running,
                                             const Thread& woken) const {
  return IsInteractive(woken) && !IsInteractive(running);
}

}  // namespace tcs
