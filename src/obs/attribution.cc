#include "src/obs/attribution.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/flight_recorder.h"
#include "src/util/percentile_sketch.h"

namespace tcs {

namespace {

constexpr int Idx(AttrStage stage) { return static_cast<int>(stage); }
constexpr int Idx(NetSubStage stage) { return static_cast<int>(stage); }

bool AnyNegative(const int64_t* values, int n) {
  return std::any_of(values, values + n, [](int64_t v) { return v < 0; });
}

// Nearest-rank p50, p99 and max of one sample column, from a transient sorted copy.
// Every reported value is an observed sample, so it is an integer and invariant under
// worker count; an empty column reports zeros.
struct Ranks {
  int64_t p50 = 0;
  int64_t p99 = 0;
  int64_t max = 0;
};

Ranks RanksOf(const ArenaColumn<int64_t>& column) {
  PercentileSketch<int64_t> sorted;
  for (int64_t sample : column) {
    sorted.Add(sample);
  }
  return Ranks{sorted.NearestRank(0.50), sorted.NearestRank(0.99), sorted.Max()};
}

}  // namespace

const char* AttrStageName(AttrStage stage) {
  switch (stage) {
    case AttrStage::kInputNet:
      return "input-net";
    case AttrStage::kRetransmit:
      return "retransmit";
    case AttrStage::kSchedWait:
      return "sched-wait";
    case AttrStage::kCpuService:
      return "cpu-service";
    case AttrStage::kMemStall:
      return "mem-stall";
    case AttrStage::kProtoEncode:
      return "proto-encode";
    case AttrStage::kDisplayNet:
      return "display-net";
    case AttrStage::kClientDecode:
      return "client-decode";
    case AttrStage::kDegradationHold:
      return "degradation-hold";
  }
  return "?";
}

const char* NetSubStageName(NetSubStage stage) {
  switch (stage) {
    case NetSubStage::kQueueing:
      return "net-queueing";
    case NetSubStage::kRetransmitWait:
      return "net-retransmit-wait";
    case NetSubStage::kSerialization:
      return "net-serialization";
    case NetSubStage::kPropagation:
      return "net-propagation";
    case NetSubStage::kJitter:
      return "net-jitter";
  }
  return "?";
}

int64_t InteractionRecord::StageSum() const {
  int64_t sum = 0;
  for (int s = 0; s < kAttrStageCount; ++s) {
    sum += stage_us[s];
  }
  return sum;
}

int64_t InteractionRecord::NetSum() const {
  int64_t sum = 0;
  for (int s = 0; s < kNetSubStageCount; ++s) {
    sum += net_us[s];
  }
  return sum;
}

LatencyAttribution::LatencyAttribution(AttributionConfig config) : config_(config) {
  if (config_.tracer != nullptr) {
    net_track_ = config_.tracer->RegisterTrack("blame", "net");
    cpu_track_ = config_.tracer->RegisterTrack("blame", "cpu");
    mem_track_ = config_.tracer->RegisterTrack("blame", "mem");
    proto_track_ = config_.tracer->RegisterTrack("blame", "proto");
    client_track_ = config_.tracer->RegisterTrack("blame", "client");
  }
}

void LatencyAttribution::Commit(const InteractionRecord& rec) {
  // The exact-accounting invariant: stages are telescoping timestamp differences, so
  // they must reproduce the end-to-end latency to the microsecond. A negative stage
  // would let the sum balance while the stages no longer tile [sent, painted] in order,
  // so it counts as a mismatch too.
  assert(rec.StageSum() == rec.total_us());
  if (rec.StageSum() != rec.total_us() || AnyNegative(rec.stage_us, kAttrStageCount)) {
    ++mismatches_;
  }
  // The display-net decomposition telescopes the same way within its stage.
  assert(rec.NetSum() == rec.stage_us[Idx(AttrStage::kDisplayNet)]);
  if (rec.NetSum() != rec.stage_us[Idx(AttrStage::kDisplayNet)] ||
      AnyNegative(rec.net_us, kNetSubStageCount)) {
    ++net_mismatches_;
  }
  ++committed_;
  keystrokes_ += rec.batch;
  total_us_sum_ += rec.total_us();
  total_samples_.Append(arena_, rec.total_us());
  for (int s = 0; s < kAttrStageCount; ++s) {
    stage_total_us_[s] += rec.stage_us[s];
    stage_samples_[s].Append(arena_, rec.stage_us[s]);
  }
  if (config_.decompose_network) {
    for (int s = 0; s < kNetSubStageCount; ++s) {
      net_total_us_[s] += rec.net_us[s];
      net_samples_[s].Append(arena_, rec.net_us[s]);
    }
  }
  if (config_.keep_records) {
    records_.Append(arena_, rec);
  }
  if (config_.recorder != nullptr) {
    config_.recorder->Span(TraceCategory::kBlame, "interaction",
                           TimePoint::FromMicros(rec.sent_us),
                           TimePoint::FromMicros(rec.painted_us), rec.id, rec.total_us(),
                           rec.batch);
  }
  if (config_.tracer != nullptr) {
    EmitTrace(rec);
  }
}

void LatencyAttribution::EmitTrace(const InteractionRecord& rec) {
  Tracer* tr = config_.tracer;
  auto at = [](int64_t us) { return TimePoint::FromMicros(us); };
  auto id = static_cast<int64_t>(rec.id);
  constexpr TraceCategory kCat = TraceCategory::kBlame;

  // One span per stage boundary on the owning resource's track; the flow chain stitches
  // them together so Perfetto draws arrows following this interaction across tracks.
  tr->Span(kCat, "input-net", net_track_, at(rec.sent_us), at(rec.arrived_us),
           "interaction", id, "retransmit_us", rec.stage_us[Idx(AttrStage::kRetransmit)]);
  tr->FlowBegin(kCat, "interaction", net_track_, at(rec.sent_us), rec.id);
  if (rec.mem_done_us > rec.pass_start_us) {
    tr->Span(kCat, "mem-stall", mem_track_, at(rec.pass_start_us), at(rec.mem_done_us),
             "interaction", id);
    tr->FlowStep(kCat, "interaction", mem_track_, at(rec.pass_start_us), rec.id);
  }
  for (int h = 0; h < rec.hop_count; ++h) {
    TraceTrack track = rec.hop_encode[h] ? proto_track_ : cpu_track_;
    const char* name = rec.hop_name[h] != nullptr
                           ? rec.hop_name[h]
                           : (rec.hop_encode[h] ? "proto-encode" : "cpu-hop");
    tr->Span(kCat, name, track, at(rec.hop_start_us[h]), at(rec.hop_end_us[h]),
             "interaction", id, "service_us", rec.hop_service_us[h]);
    tr->FlowStep(kCat, "interaction", track, at(rec.hop_start_us[h]), rec.id);
  }
  tr->Span(kCat, "display-net", net_track_, at(rec.emitted_us), at(rec.delivered_us),
           "interaction", id);
  tr->FlowStep(kCat, "interaction", net_track_, at(rec.emitted_us), rec.id);
  tr->Span(kCat, "client-decode", client_track_, at(rec.delivered_us), at(rec.painted_us),
           "interaction", id);
  tr->FlowEnd(kCat, "interaction", client_track_, at(rec.painted_us), rec.id);
}

AttributionResult LatencyAttribution::Collect() const {
  AttributionResult result;
  result.active = true;
  result.interactions = committed_;
  result.keystrokes = keystrokes_;
  result.minted = minted_;
  result.accounting_mismatches = mismatches_;
  int64_t stage_grand_total = 0;
  for (int s = 0; s < kAttrStageCount; ++s) {
    stage_grand_total += stage_total_us_[s];
  }
  Ranks total = RanksOf(total_samples_);
  result.p50_total_us = total.p50;
  result.p99_total_us = total.p99;
  result.max_total_us = total.max;
  result.total_us = total_us_sum_;
  int64_t top_p99 = -1;
  for (int s = 0; s < kAttrStageCount; ++s) {
    // degradation-hold only appears once it has accrued time: pre-degradation runs (the
    // whole golden corpus) keep their exact 8-entry stages array.
    if (s == static_cast<int>(AttrStage::kDegradationHold) && stage_total_us_[s] == 0) {
      continue;
    }
    StageSummary sum;
    sum.stage = AttrStageName(static_cast<AttrStage>(s));
    sum.count = committed_;
    sum.total_us = stage_total_us_[s];
    Ranks ranks = RanksOf(stage_samples_[s]);
    sum.p50_us = ranks.p50;
    sum.p99_us = ranks.p99;
    sum.max_us = ranks.max;
    sum.share = stage_grand_total > 0 ? static_cast<double>(sum.total_us) /
                                            static_cast<double>(stage_grand_total)
                                      : 0.0;
    if (committed_ > 0 && sum.p99_us > top_p99) {
      top_p99 = sum.p99_us;
      result.top_stage = sum.stage;
    }
    result.stages.push_back(std::move(sum));
  }
  result.net_mismatches = net_mismatches_;
  if (config_.decompose_network) {
    int64_t net_grand_total = 0;
    for (int s = 0; s < kNetSubStageCount; ++s) {
      net_grand_total += net_total_us_[s];
    }
    for (int s = 0; s < kNetSubStageCount; ++s) {
      StageSummary sum;
      sum.stage = NetSubStageName(static_cast<NetSubStage>(s));
      sum.count = committed_;
      sum.total_us = net_total_us_[s];
      Ranks ranks = RanksOf(net_samples_[s]);
      sum.p50_us = ranks.p50;
      sum.p99_us = ranks.p99;
      sum.max_us = ranks.max;
      sum.share = net_grand_total > 0 ? static_cast<double>(sum.total_us) /
                                            static_cast<double>(net_grand_total)
                                      : 0.0;
      result.net_stages.push_back(std::move(sum));
    }
  }
  return result;
}

const char* WhatIfComponentName(WhatIfAdjustment::Component component) {
  switch (component) {
    case WhatIfAdjustment::Component::kLink:
      return "link";
    case WhatIfAdjustment::Component::kCpu:
      return "cpu";
    case WhatIfAdjustment::Component::kDisk:
      return "disk";
    case WhatIfAdjustment::Component::kRtt:
      return "rtt";
  }
  return "?";
}

int64_t PredictAdjustedTotalUs(const InteractionRecord& rec,
                               const WhatIfAdjustment& adj) {
  auto rescaled = [&](int64_t affected_us) {
    assert(adj.speedup > 0.0);
    return static_cast<int64_t>(
        std::llround(static_cast<double>(affected_us) / adj.speedup));
  };
  int64_t total = rec.total_us();
  switch (adj.component) {
    case WhatIfAdjustment::Component::kLink: {
      // A faster link shrinks everything billed at the wire's rate on the display leg:
      // the bufferbloat queue ahead of the update, the retransmitted frames it waits
      // behind, and its own serialization. Propagation and jitter are delay, not rate.
      const int64_t affected = rec.net_us[Idx(NetSubStage::kQueueing)] +
                               rec.net_us[Idx(NetSubStage::kRetransmitWait)] +
                               rec.net_us[Idx(NetSubStage::kSerialization)];
      total += rescaled(affected) - affected;
      break;
    }
    case WhatIfAdjustment::Component::kCpu: {
      // Faster CPU shrinks exact service time (application hops + protocol encode).
      // Run-queue wait is left unscaled: it depends on *other* threads' service times,
      // a second-order effect the prediction deliberately excludes (see header).
      const int64_t affected = rec.stage_us[Idx(AttrStage::kCpuService)] +
                               rec.stage_us[Idx(AttrStage::kProtoEncode)];
      total += rescaled(affected) - affected;
      break;
    }
    case WhatIfAdjustment::Component::kDisk: {
      const int64_t affected = rec.stage_us[Idx(AttrStage::kMemStall)];
      total += rescaled(affected) - affected;
      break;
    }
    case WhatIfAdjustment::Component::kRtt: {
      // RTT reduction splits across the two one-way legs; each leg clamps at zero.
      const int64_t down_half = adj.rtt_delta_us / 2;
      const int64_t up_half = adj.rtt_delta_us - down_half;
      total -= std::min(down_half, rec.net_us[Idx(NetSubStage::kPropagation)]);
      total -= std::min(up_half, rec.stage_us[Idx(AttrStage::kInputNet)]);
      break;
    }
  }
  return total;
}

}  // namespace tcs
