#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace tcs {

void MetricsRegistry::AddGauge(const std::string& name, std::function<double()> poll) {
  gauges_.push_back(Gauge{name, std::move(poll)});
}

namespace {

void AppendValue(std::string& out, double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

}  // namespace

PeriodicSampler::PeriodicSampler(Simulator& sim, MetricsRegistry& registry,
                                 Duration period, Tracer* tracer)
    : sim_(sim),
      registry_(registry),
      tracer_(tracer),
      task_(sim, period, [this] { Sample(); }) {
  if (tracer_ != nullptr) {
    track_ = tracer_->RegisterTrack("metrics", "gauges");
  }
  for (size_t i = 0; i < registry_.gauges().size(); ++i) {
    series_.push_back(std::make_unique<TimeSeries>(period));
  }
}

void PeriodicSampler::Start(Duration initial_delay) { task_.Start(initial_delay); }

void PeriodicSampler::Sample() {
  const auto& gauges = registry_.gauges();
  // Gauges registered after construction get series on first use, keeping indexes aligned
  // with registration order.
  while (series_.size() < gauges.size()) {
    series_.push_back(std::make_unique<TimeSeries>(task_.period()));
  }
  TimePoint now = sim_.Now();
  for (size_t i = 0; i < gauges.size(); ++i) {
    double v = gauges[i].poll();
    series_[i]->Add(now, v);
    if (tracer_ != nullptr) {
      tracer_->Counter(TraceCategory::kSim, InternName(gauges[i].name), track_, now, v);
    }
  }
  ++samples_taken_;
}

void PeriodicSampler::WriteCsv(std::ostream& out) const {
  const auto& gauges = registry_.gauges();
  std::string line = "time_s";
  for (size_t i = 0; i < series_.size() && i < gauges.size(); ++i) {
    line += ",";
    line += gauges[i].name;
  }
  line += "\n";
  out << line;

  size_t buckets = 0;
  for (const auto& s : series_) {
    buckets = std::max(buckets, s->bucket_count());
  }
  char buf[40];
  double width_s = task_.period().ToSecondsF();
  for (size_t b = 0; b < buckets; ++b) {
    line.clear();
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(b) * width_s);
    line += buf;
    for (const auto& s : series_) {
      line += ",";
      if (b < s->bucket_count() && s->Count(b) > 0) {
        AppendValue(line, s->Mean(b));
      }
    }
    line += "\n";
    out << line;
  }
}

}  // namespace tcs
