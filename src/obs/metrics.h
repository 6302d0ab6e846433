// Named metrics (the observability layer's aggregate side).
//
// A MetricsRegistry holds gauges (poll functions over live model state: run-queue depth,
// resident pages, link backlog, cache hit rate). A PeriodicSampler snapshots every gauge
// into a util::TimeSeries on a virtual-time cadence and, when a Tracer is attached,
// mirrors each sample as a Chrome counter event so the gauges render as counter tracks
// in Perfetto.
//
// Registration order is the export order, so CSV/JSON output is deterministic.

#ifndef TCS_SRC_OBS_METRICS_H_
#define TCS_SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/trace.h"
#include "src/sim/periodic.h"
#include "src/sim/simulator.h"
#include "src/util/time_series.h"

namespace tcs {

class FlightRecorder;
struct SloSpec;

class MetricsRegistry {
 public:
  struct Gauge {
    std::string name;
    std::function<double()> poll;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // `poll` reads live model state; it runs only when a PeriodicSampler fires.
  void AddGauge(const std::string& name, std::function<double()> poll);

  const std::vector<Gauge>& gauges() const { return gauges_; }

 private:
  std::vector<Gauge> gauges_;
};

// The gauge-sampling cadence of every observed experiment.
inline constexpr Duration kSamplePeriod = Duration::Millis(100);

// Samples every registered gauge each `period` of virtual time.
class PeriodicSampler {
 public:
  PeriodicSampler(Simulator& sim, MetricsRegistry& registry, Duration period,
                  Tracer* tracer = nullptr);

  void Start(Duration initial_delay = Duration::Zero());

  // The sampled series for gauge `i` (registration order), bucketed at the cadence.
  const TimeSeries& series(size_t i) const { return *series_[i]; }
  size_t gauge_count() const { return series_.size(); }
  int64_t samples_taken() const { return samples_taken_; }

  // "time_s,<gauge names...>" header then one row per sample interval (bucket means).
  void WriteCsv(std::ostream& out) const;

 private:
  void Sample();

  Simulator& sim_;
  MetricsRegistry& registry_;
  Tracer* tracer_;
  TraceTrack track_;
  std::vector<std::unique_ptr<TimeSeries>> series_;
  PeriodicTask task_;
  int64_t samples_taken_ = 0;
};

// Everything an experiment needs to run observed: a tracer and/or metrics registry.
// Experiments that receive a non-null ObsConfig wire the tracer through every layer and
// run a PeriodicSampler for the registry's gauges every kSamplePeriod.
struct ObsConfig {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  // When set, server experiments thread interaction ids through the keystroke pipeline
  // and fill their result's `blame` block (per-stage latency attribution).
  LatencyAttribution* attribution = nullptr;
  // Always-on bounded ring of compact component records (src/obs/flight_recorder.h).
  // Null = off (one branch per would-be record at every call site).
  FlightRecorder* recorder = nullptr;
  // Declarative per-run objectives (src/obs/slo.h). When set, experiments run an
  // SloWatchdog, fill their result's `slo` block, and — lacking a `recorder` above —
  // attach a run-local FlightRecorder so violating runs still yield a full postmortem
  // bundle even with tracing off.
  const SloSpec* slo = nullptr;
  // When non-null, the experiment renders its PeriodicSampler's gauge series (CSV) here
  // before the sampler goes out of scope, so callers can persist it.
  std::string* sampler_csv = nullptr;
};

}  // namespace tcs

#endif  // TCS_SRC_OBS_METRICS_H_
