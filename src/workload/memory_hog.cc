#include "src/workload/memory_hog.h"

#include <algorithm>

#include "src/util/config_error.h"

namespace tcs {

MemoryHogConfig Validated(MemoryHogConfig config) {
  if (config.region_pages == 0) {
    throw ConfigError("MemoryHogConfig.region_pages", "region must hold at least one page");
  }
  if (config.touch_cpu <= Duration::Zero()) {
    throw ConfigError("MemoryHogConfig.touch_cpu", "per-page touch time must be positive");
  }
  return config;
}

MemoryHog::MemoryHog(Simulator& sim, Pager& pager, MemoryHogConfig config)
    : sim_(sim), pager_(pager), config_(Validated(config)) {
  as_ = pager_.CreateAddressSpace("hog", /*interactive=*/false);
}

void MemoryHog::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  if (!chained_) {
    chained_ = true;
    TouchNext();
  }
}

void MemoryHog::Stop() {
  running_ = false;
}

void MemoryHog::TouchNext() {
  if (!running_) {
    chained_ = false;
    return;
  }
  uint64_t vpn = next_vpn_;
  next_vpn_ = (next_vpn_ + 1) % config_.region_pages;
  // Touch the page (paying any fault), then burn the per-page CPU, then continue. The CPU
  // burn is modelled as plain delay here; experiments that need the hog to also contend
  // for the scheduler run sinks alongside (the paper studied the resources separately).
  pager_.Access(*as_, vpn, config_.writes, [this] { OnTouched(); });
}

void MemoryHog::OnTouched() {
  ++pages_touched_;
  // Resident hits due strictly before the horizon are applied here: until then no other
  // event runs, and per-page touch events would only schedule each other. The first
  // touch not applied is scheduled as before, so it keeps its place among same-time
  // events.
  TimePoint next = sim_.Now() + config_.touch_cpu;
  TimePoint horizon = sim_.Horizon();
  const int64_t touch_us = config_.touch_cpu.ToMicros();
  while (running_ && next < horizon) {
    // The touches at next, next + touch_cpu, ... strictly before the horizon, up to the
    // region's end (the walk wraps there).
    int64_t span_us = (horizon - next).ToMicros();
    auto due = static_cast<uint64_t>(span_us / touch_us + (span_us % touch_us != 0));
    size_t count = std::min<uint64_t>(due, config_.region_pages - next_vpn_);
    size_t hits = pager_.TryHit(*as_, next_vpn_, count, config_.writes);
    next_vpn_ = (next_vpn_ + hits) % config_.region_pages;
    pages_touched_ += static_cast<int64_t>(hits);
    next += config_.touch_cpu * static_cast<int64_t>(hits);
    if (hits < count) {
      break;
    }
  }
  sim_.At(next, [this] { TouchNext(); });
}

}  // namespace tcs
