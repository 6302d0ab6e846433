#include "src/mem/disk.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/util/config_error.h"

namespace tcs {

namespace {

// Fraction of a positioning cost paid by each clustered page after the first.
constexpr double kSequentialPositioningFactor = 0.1;

}  // namespace

DiskConfig Validated(DiskConfig config) {
  if (config.transfer_rate.bps() <= 0) {
    throw ConfigError("DiskConfig.transfer_rate", "transfer rate must be positive");
  }
  if (config.positioning_min < Duration::Zero() ||
      config.positioning_mean < Duration::Zero()) {
    throw ConfigError("DiskConfig.positioning", "positioning cost cannot be negative");
  }
  return config;
}

Disk::Disk(Simulator& sim, Rng rng, DiskConfig config)
    : sim_(sim), rng_(rng), config_(Validated(config)) {}

Duration Disk::ServiceTime(int pages) {
  assert(pages > 0);
  double pos_ms = rng_.NextNormal(config_.positioning_mean.ToMillisF(),
                                  config_.positioning_stddev.ToMillisF());
  Duration positioning =
      std::max(config_.positioning_min, Duration::Micros(static_cast<int64_t>(pos_ms * 1e3)));
  Duration transfer = TransmissionDelay(kPageSize, config_.transfer_rate);
  Duration service = positioning + transfer;
  if (pages > 1) {
    Duration extra_pos = positioning * kSequentialPositioningFactor;
    service += (transfer + extra_pos) * (pages - 1);
  }
  return service;
}

void Disk::Attach(Emitter emit) {
  emit_ = emit;
  trace_track_ = emit_.Track("mem", "disk");
}

void Disk::Enqueue(const char* op, int pages, InlineCallback done) {
  Duration service = ServiceTime(pages);
  if (fault_ != nullptr) {
    // Stalls and retried I/O errors lengthen this request's occupancy of the device,
    // which queues behind-it requests too — exactly how a degraded spindle feels.
    service += fault_->Perturb(service);
  }
  TimePoint start = std::max(sim_.Now(), busy_until_);
  busy_until_ = start + service;
  total_busy_ += service;
  emit_.Trace().Span(TraceCategory::kMem, op, trace_track_, start, busy_until_,
                     {"pages", pages}, {"queue_us", (start - sim_.Now()).ToMicros()});
  if (done) {
    sim_.At(busy_until_, std::move(done));
  }
}

void Disk::Read(int pages, InlineCallback done) {
  ++reads_;
  pages_read_ += pages;
  Enqueue("disk-read", pages, std::move(done));
}

void Disk::Write(int pages, InlineCallback done) {
  ++writes_;
  pages_written_ += pages;
  Enqueue("disk-write", pages, std::move(done));
}

}  // namespace tcs
