#include "src/core/run_support.h"

namespace tcs {
namespace run_support {

std::string ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kRdp:
      return "RDP";
    case ProtocolKind::kX:
      return "X";
    case ProtocolKind::kLbx:
      return "LBX";
    case ProtocolKind::kSlim:
      return "SLIM";
    case ProtocolKind::kVnc:
      return "VNC";
  }
  return "?";
}

void AttachSimHook(Simulator& sim, const ObsConfig* obs) {
  if (obs == nullptr || obs->tracer == nullptr ||
      !obs->tracer->Enabled(TraceCategory::kSim)) {
    return;
  }
  Tracer* tracer = obs->tracer;
  TraceTrack track = tracer->RegisterTrack("sim", "kernel");
  sim.set_dispatch_hook([tracer, track](TimePoint when, size_t pending) {
    tracer->Counter(TraceCategory::kSim, "pending_events", track, when,
                    static_cast<double>(pending));
  });
}

std::unique_ptr<PeriodicSampler> StartSampler(Simulator& sim, const ObsConfig* obs) {
  if (obs == nullptr || obs->metrics == nullptr) {
    return nullptr;
  }
  auto sampler =
      std::make_unique<PeriodicSampler>(sim, *obs->metrics, kSamplePeriod, obs->tracer);
  sampler->Start();
  return sampler;
}

}  // namespace run_support
}  // namespace tcs
