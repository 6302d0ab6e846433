#include "src/obs/slo.h"

#include <filesystem>
#include <fstream>

#include "src/util/config_error.h"
#include "src/util/json.h"

namespace tcs {

namespace {

std::string ObjectiveJson(const SloObjectiveResult& o) {
  JsonObject j;
  j.Str("objective", o.objective);
  j.Double("limit", o.limit);
  j.Double("observed", o.observed);
  j.Bool("passed", o.passed);
  return j.Finish();
}

// Writes one bundle file through `fill`; true only if the whole file was written.
template <typename Fill>
bool WriteBundleFile(const std::string& path, const Fill& fill) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  fill(out);
  out.close();
  return !out.fail();
}

std::string ObjectivesJson(const std::vector<SloObjectiveResult>& objectives) {
  std::string out = "[";
  for (size_t i = 0; i < objectives.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += ObjectiveJson(objectives[i]);
  }
  out += ']';
  return out;
}

}  // namespace

std::string ToJson(const SloReport& r) {
  JsonObject o;
  o.Bool("passed", r.passed);
  o.Int("violated_at_us", r.violated_at_us);
  o.Str("violating_objective", r.violating_objective);
  o.Raw("objectives", ObjectivesJson(r.objectives));
  std::string pm = "[";
  for (size_t i = 0; i < r.postmortems.size(); ++i) {
    if (i > 0) {
      pm += ',';
    }
    JsonObject p;
    p.Str("path", r.postmortems[i]);
    pm += p.Finish();
  }
  pm += ']';
  o.Raw("postmortems", pm);
  return o.Finish();
}

SloSpec Validated(SloSpec spec) {
  if (!(spec.check_period > Duration::Zero())) {
    throw ConfigError("SloSpec.check_period", "live-check period must be positive");
  }
  return spec;
}

SloWatchdog::SloWatchdog(Simulator& sim, SloSpec spec, FlightRecorder* recorder,
                         MetricsRegistry* metrics, LatencyAttribution* attribution)
    : sim_(sim),
      spec_(Validated(std::move(spec))),
      recorder_(recorder),
      metrics_(metrics),
      attribution_(attribution),
      task_(sim, spec_.check_period, [this] { Check(); }) {}

void SloWatchdog::Start() { task_.Start(spec_.check_period); }

void SloWatchdog::Check() {
  TimePoint now = sim_.Now();
  if (recorder_ != nullptr) {
    // The kernel's dispatch depth rides the watchdog cadence instead of a per-event
    // hook, so a healthy run pays nothing on the hot path for it.
    recorder_->Counter(TraceCategory::kSim, "pending_events", now,
                       static_cast<int64_t>(sim_.pending_events()));
  }
  if (spec_.max_link_backlog_bytes > 0 && backlog_bytes_) {
    int64_t backlog = backlog_bytes_();
    if (backlog > peak_backlog_bytes_) {
      peak_backlog_bytes_ = backlog;
    }
    if (backlog > spec_.max_link_backlog_bytes) {
      Violate("link_backlog_bytes", static_cast<double>(spec_.max_link_backlog_bytes),
              static_cast<double>(backlog));
    }
  }
  if (spec_.max_worst_p99_ms > 0.0 && worst_p99_ms_) {
    double p99 = worst_p99_ms_();
    if (p99 > spec_.max_worst_p99_ms) {
      Violate("worst_p99_ms", spec_.max_worst_p99_ms, p99);
    }
  }
}

void SloWatchdog::Violate(const char* objective, double limit, double observed) {
  if (violated_) {
    return;  // the first violation owns the frozen window
  }
  violated_ = true;
  violated_at_us_ = sim_.Now().ToMicros();
  violating_objective_ = objective;
  violating_limit_ = limit;
  violating_observed_ = observed;
  if (recorder_ != nullptr) {
    recorder_->Instant(TraceCategory::kFault, "slo-violation", sim_.Now(), 0,
                       static_cast<int64_t>(observed), static_cast<int64_t>(limit));
    recorder_->Freeze(sim_.Now());
  }
  if (metrics_ != nullptr) {
    for (const MetricsRegistry::Gauge& g : metrics_->gauges()) {
      frozen_gauges_.emplace_back(g.name, g.poll());
    }
  }
}

SloReport SloWatchdog::FinishRun(double availability) {
  task_.Stop();
  SloReport report;
  report.active = true;
  // Fixed objective order: p99, starvation, availability, backlog.
  if (spec_.max_worst_p99_ms > 0.0) {
    SloObjectiveResult o;
    o.objective = "worst_p99_ms";
    o.limit = spec_.max_worst_p99_ms;
    o.observed = worst_p99_ms_ ? worst_p99_ms_() : 0.0;
    o.passed = o.observed <= o.limit;
    report.objectives.push_back(std::move(o));
  }
  if (spec_.max_starved_fraction >= 0.0) {
    SloObjectiveResult o;
    o.objective = "starved_fraction";
    o.limit = spec_.max_starved_fraction;
    o.observed = starved_fraction_ ? starved_fraction_() : 0.0;
    o.passed = o.observed <= o.limit;
    report.objectives.push_back(std::move(o));
  }
  if (spec_.min_availability > 0.0) {
    SloObjectiveResult o;
    o.objective = "availability";
    o.limit = spec_.min_availability;
    o.observed = availability;
    o.passed = o.observed >= o.limit;
    report.objectives.push_back(std::move(o));
  }
  if (spec_.max_link_backlog_bytes > 0) {
    SloObjectiveResult o;
    o.objective = "link_backlog_bytes";
    o.limit = static_cast<double>(spec_.max_link_backlog_bytes);
    // The backlog drains by end of run, so the observed value is the live peak.
    o.observed = static_cast<double>(peak_backlog_bytes_);
    o.passed = o.observed <= o.limit;
    report.objectives.push_back(std::move(o));
  }
  for (const SloObjectiveResult& o : report.objectives) {
    report.passed = report.passed && o.passed;
  }
  if (!report.passed && !violated_) {
    // An end-of-run-only objective failed (starvation, availability): freeze now so
    // the bundle still carries the run's tail window.
    for (const SloObjectiveResult& o : report.objectives) {
      if (!o.passed) {
        Violate(o.objective.c_str(), o.limit, o.observed);
        break;
      }
    }
  }
  report.passed = report.passed && !violated_;
  report.violated_at_us = violated_at_us_;
  report.violating_objective = violating_objective_;
  if (!report.passed && !spec_.out_dir.empty()) {
    WriteBundle(report);
  }
  return report;
}

std::string SloWatchdog::BlameDigestJson() const {
  AttributionResult blame = attribution_->Collect();
  JsonObject o;
  o.Int("interactions", blame.interactions);
  o.Int("total_us", blame.total_us);
  o.Int("p50_total_us", blame.p50_total_us);
  o.Int("p99_total_us", blame.p99_total_us);
  o.Int("max_total_us", blame.max_total_us);
  o.Str("top_stage", blame.top_stage);
  std::string stages = "[";
  for (size_t i = 0; i < blame.stages.size(); ++i) {
    const StageSummary& s = blame.stages[i];
    if (i > 0) {
      stages += ',';
    }
    JsonObject so;
    so.Str("stage", s.stage);
    so.Int("total_us", s.total_us);
    so.Double("share", s.share);
    so.Int("p99_us", s.p99_us);
    stages += so.Finish();
  }
  stages += ']';
  o.Raw("stages", stages);
  return o.Finish();
}

void SloWatchdog::WriteBundle(SloReport& report) {
  // This runs inside the simulation (on a sweep's worker thread, too), so a directory
  // that cannot be made or a file that cannot be written leaves that file out of
  // `postmortems` instead of throwing.
  std::error_code ec;
  std::filesystem::create_directories(spec_.out_dir, ec);
  if (ec) {
    return;
  }
  std::string trace_path = spec_.out_dir + "/" + spec_.name + ".trace.json";
  if (WriteBundleFile(trace_path,
                      [this](std::ostream& out) { recorder_->WriteWindowJson(out); })) {
    report.postmortems.push_back(trace_path);
  }

  JsonObject o;
  o.Str("slo", spec_.name);
  o.Str("violating_objective", violating_objective_);
  o.Double("limit", violating_limit_);
  o.Double("observed", violating_observed_);
  o.Int("violated_at_us", violated_at_us_);
  o.Raw("objectives", ObjectivesJson(report.objectives));
  std::string gauges = "[";
  for (size_t i = 0; i < frozen_gauges_.size(); ++i) {
    if (i > 0) {
      gauges += ',';
    }
    JsonObject g;
    g.Str("name", frozen_gauges_[i].first);
    g.Double("value", frozen_gauges_[i].second);
    gauges += g.Finish();
  }
  gauges += ']';
  o.Raw("gauges", gauges);
  if (attribution_ != nullptr) {
    o.Raw("blame", BlameDigestJson());
  }
  JsonObject w;
  w.UInt("records", recorder_->frozen_window().size());
  w.Int("window_us", recorder_->window().ToMicros());
  w.Int("frozen_at_us", recorder_->frozen_at().ToMicros());
  if (!recorder_->frozen_window().empty()) {
    w.Int("first_ts_us", recorder_->frozen_window().front().ts_us);
    w.Int("last_ts_us", recorder_->frozen_window().back().ts_us);
  }
  o.Raw("window", w.Finish());
  std::string pm_path = spec_.out_dir + "/" + spec_.name + ".postmortem.json";
  std::string summary = o.Finish() + "\n";
  if (WriteBundleFile(pm_path, [&summary](std::ostream& out) { out << summary; })) {
    report.postmortems.push_back(pm_path);
  }
}

}  // namespace tcs
