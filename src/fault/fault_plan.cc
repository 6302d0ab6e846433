#include "src/fault/fault_plan.h"

#include <algorithm>

#include "src/util/config_error.h"

namespace tcs {

std::vector<OutageWindow> MergeAdjacentOutages(std::vector<OutageWindow> windows) {
  if (windows.size() < 2) {
    return windows;
  }
  std::sort(windows.begin(), windows.end(),
            [](const OutageWindow& a, const OutageWindow& b) { return a.from < b.from; });
  std::vector<OutageWindow> merged;
  merged.push_back(windows.front());
  for (size_t i = 1; i < windows.size(); ++i) {
    if (windows[i].from <= merged.back().until) {
      merged.back().until = std::max(merged.back().until, windows[i].until);
    } else {
      merged.push_back(windows[i]);
    }
  }
  return merged;
}

namespace {

void CheckRate(const char* field, double rate) {
  if (rate < 0.0 || rate > 1.0) {
    throw ConfigError(field, "probability must be in [0, 1]");
  }
}

}  // namespace

void Validate(const FaultPlan& plan) {
  CheckRate("FaultPlan.link.loss_rate", plan.link.loss_rate);
  CheckRate("FaultPlan.link.corruption_rate", plan.link.corruption_rate);
  CheckRate("FaultPlan.disk.stall_rate", plan.disk.stall_rate);
  CheckRate("FaultPlan.disk.error_rate", plan.disk.error_rate);
  if ((plan.link.flap_every > Duration::Zero()) !=
      (plan.link.flap_duration > Duration::Zero())) {
    throw ConfigError("FaultPlan.link.flap_every",
                      "flap_every and flap_duration must be set together");
  }
  // Adjacent windows (w.from == last_end) are legal: the injector merges them, so they
  // behave exactly like the single combined window. Overlap and disorder stay errors —
  // they are almost always a plan-authoring bug, not an intent.
  TimePoint last_end = TimePoint::Zero();
  for (const OutageWindow& w : plan.link.scripted_outages) {
    if (w.until <= w.from || w.from < last_end) {
      throw ConfigError("FaultPlan.link.scripted_outages",
                        "windows must be non-empty, sorted, and non-overlapping");
    }
    last_end = w.until;
  }
  const WanLinkPlan& wan = plan.link.wan;
  CheckRate("FaultPlan.link.wan.ge_p_good_to_bad", wan.ge_p_good_to_bad);
  CheckRate("FaultPlan.link.wan.ge_p_bad_to_good", wan.ge_p_bad_to_good);
  CheckRate("FaultPlan.link.wan.ge_loss_good", wan.ge_loss_good);
  CheckRate("FaultPlan.link.wan.ge_loss_bad", wan.ge_loss_bad);
  if (wan.extra_delay < Duration::Zero()) {
    throw ConfigError("FaultPlan.link.wan.extra_delay", "extra delay cannot be negative");
  }
  if (wan.jitter < Duration::Zero()) {
    throw ConfigError("FaultPlan.link.wan.jitter", "jitter cannot be negative");
  }
  if (wan.down_rate.bps() < 0 || wan.up_rate.bps() < 0) {
    throw ConfigError("FaultPlan.link.wan.down_rate", "rates cannot be negative");
  }
  if (wan.queue_bytes.count() < 0) {
    throw ConfigError("FaultPlan.link.wan.queue_bytes", "queue bound cannot be negative");
  }
  if (wan.HasGilbertElliott() && wan.ge_p_bad_to_good <= 0.0 &&
      wan.ge_p_good_to_bad > 0.0) {
    throw ConfigError("FaultPlan.link.wan.ge_p_bad_to_good",
                      "burst-loss chain needs a positive bad->good probability");
  }
}

}  // namespace tcs
