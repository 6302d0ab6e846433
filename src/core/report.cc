#include "src/core/report.h"

#include <vector>

#include "src/util/json.h"

namespace tcs {

namespace {

// "[a,b,...]" from each item's rendering.
template <typename T, typename Render>
std::string JsonArray(const std::vector<T>& items, Render render) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += render(items[i]);
  }
  return out + ']';
}

std::string RunJson(const RunStats& run) {
  JsonObject o;
  o.UInt("events_executed", run.events_executed);
  o.UInt("pending_events", run.pending_events);
  o.Double("wall_ms", run.wall_ms);
  return o.Finish();
}

std::string FaultsJson(const FaultStats& f) {
  JsonObject o;
  o.Double("availability", f.availability);
  o.Double("disk_stall_rate", f.disk_stall_rate);
  o.UInt("frames_lost", f.frames_lost);
  o.UInt("frames_corrupted", f.frames_corrupted);
  o.UInt("retransmissions", f.retransmissions);
  o.UInt("input_frames_lost", f.input_frames_lost);
  o.UInt("disconnects", f.disconnects);
  o.UInt("dropped_keystrokes", f.dropped_keystrokes);
  o.UInt("daemon_crashes", f.daemon_crashes);
  o.UInt("disk_stalls", f.disk_stalls);
  o.UInt("io_errors", f.io_errors);
  o.UInt("burst_losses", f.burst_losses);
  o.UInt("wan_queue_drops", f.wan_queue_drops);
  o.UInt("frames_shed", f.frames_shed);
  return o.Finish();
}

std::string StageJson(const StageSummary& s) {
  JsonObject o;
  o.Str("stage", s.stage);
  o.Int("total_us", s.total_us);
  o.Double("share", s.share);
  o.Int("p50_us", s.p50_us);
  o.Int("p99_us", s.p99_us);
  o.Int("max_us", s.max_us);
  return o.Finish();
}

// The blocks every experiment report ends with: blame and slo when the run carried
// them, then the run accounting.
std::string FinishReport(JsonObject& o, const AttributionResult& blame,
                         const SloReport& slo, const RunStats& run) {
  if (blame.active) {
    o.Raw("blame", ToJson(blame));
  }
  if (slo.active) {
    o.Raw("slo", ToJson(slo));
  }
  o.Raw("run", RunJson(run));
  return o.Finish();
}

}  // namespace

std::string ToJson(const AttributionResult& r) {
  JsonObject o;
  o.Int("interactions", r.interactions);
  o.Int("keystrokes", r.keystrokes);
  o.UInt("minted", r.minted);
  o.Int("accounting_mismatches", r.accounting_mismatches);
  o.Int("total_us", r.total_us);
  o.Int("p50_total_us", r.p50_total_us);
  o.Int("p99_total_us", r.p99_total_us);
  o.Int("max_total_us", r.max_total_us);
  o.Str("top_stage", r.top_stage);
  o.Raw("stages", JsonArray(r.stages, StageJson));
  // Display-net decomposition: present only when the run aggregated sub-stage samples
  // (AttributionConfig.decompose_network), so legacy reports keep their exact bytes.
  if (!r.net_stages.empty()) {
    o.Raw("network", JsonArray(r.net_stages, StageJson));
    o.Int("net_mismatches", r.net_mismatches);
  }
  return o.Finish();
}

std::string ToJson(const TypingUnderLoadResult& r) {
  JsonObject o;
  o.Str("experiment", "typing_under_load");
  o.Str("os", r.os_name);
  o.Int("sinks", r.sinks);
  o.Double("avg_stall_ms", r.avg_stall_ms);
  o.Double("max_stall_ms", r.max_stall_ms);
  o.Double("jitter_ms", r.jitter_ms);
  o.Int("updates", r.updates);
  return FinishReport(o, r.blame, r.slo, r.run);
}

std::string ToJson(const PagingLatencyResult& r) {
  JsonObject o;
  o.Str("experiment", "paging_latency");
  o.Str("os", r.os_name);
  o.Bool("full_demand", r.full_demand);
  o.Int("runs", r.runs);
  o.Double("min_ms", r.min_ms);
  o.Double("avg_ms", r.avg_ms);
  o.Double("max_ms", r.max_ms);
  return FinishReport(o, r.blame, SloReport{}, r.run);
}

std::string ToJson(const EndToEndResult& r) {
  JsonObject o;
  o.Str("experiment", "end_to_end_latency");
  o.Str("os", r.os_name);
  o.Str("client", r.client_name);
  o.Double("input_net_ms", r.input_net_ms);
  o.Double("server_ms", r.server_ms);
  o.Double("display_net_ms", r.display_net_ms);
  o.Double("client_ms", r.client_ms);
  o.Double("total_ms", r.total_ms);
  o.Int("updates", r.updates);
  // Only faulted runs carry the block, so fault-free reports stay byte-identical with
  // pre-fault builds.
  if (r.faults.active) {
    o.Raw("faults", FaultsJson(r.faults));
  }
  return FinishReport(o, r.blame, r.slo, r.run);
}

std::string ToJson(const SizingPoint& r) {
  JsonObject o;
  o.Str("experiment", "server_sizing");
  o.Str("os", r.os_name);
  o.Int("users", r.users);
  o.Double("cpu_utilization", r.cpu_utilization);
  o.Double("avg_stall_ms", r.avg_stall_ms);
  o.Double("worst_stall_ms", r.worst_stall_ms);
  return FinishReport(o, r.blame, SloReport{}, r.run);
}

std::string ToJson(const ConsolidationResult& r) {
  JsonObject o;
  o.Str("experiment", "consolidation");
  o.Str("os", r.os_name);
  o.Str("protocol", r.protocol);
  o.Int("users", r.users);
  o.Double("cpu_utilization", r.cpu_utilization);
  o.Double("link_utilization", r.link_utilization);
  o.UInt("resident_pages", r.resident_pages);
  o.UInt("total_frames", r.total_frames);
  o.UInt("shared_segments", r.shared_segments);
  o.Int("shared_attaches", r.shared_attaches);
  o.Int("page_faults", r.page_faults);
  o.Int("coalesced_waits", r.coalesced_waits);
  o.Double("avg_stall_ms", r.avg_stall_ms);
  o.Double("worst_stall_ms", r.worst_stall_ms);
  o.Double("worst_p99_stall_ms", r.worst_p99_stall_ms);
  o.Raw("per_user", JsonArray(r.per_user, [](const UserStallStats& u) {
          JsonObject uo;
          uo.Int("updates", u.updates);
          uo.Double("avg_stall_ms", u.avg_stall_ms);
          uo.Double("max_stall_ms", u.max_stall_ms);
          uo.Double("jitter_ms", u.jitter_ms);
          uo.Double("p50_stall_ms", u.p50_stall_ms);
          uo.Double("p99_stall_ms", u.p99_stall_ms);
          uo.Int("wire_bytes", u.wire_bytes.count());
          uo.Double("link_share", u.link_share);
          return uo.Finish();
        }));
  return FinishReport(o, r.blame, r.slo, r.run);
}

std::string ToJson(const CapacityResult& r) {
  JsonObject o;
  o.Str("experiment", "server_capacity");
  o.Str("os", r.os_name);
  o.Str("protocol", r.protocol);
  o.Int("utilization_sized_users", r.utilization_sized_users);
  o.Int("latency_sized_users", r.latency_sized_users);
  o.Bool("utilization_over_admits", r.utilization_over_admits);
  o.Raw("probes",
        JsonArray(r.probes, [](const ConsolidationResult& p) { return ToJson(p); }));
  o.Raw("run", RunJson(r.run));
  return o.Finish();
}

std::string ToJson(const ProtocolTrafficResult& r) {
  JsonObject o;
  o.Str("experiment", "app_workload_traffic");
  o.Str("protocol", r.protocol);
  o.Int("input_bytes", r.input.bytes);
  o.Int("input_messages", r.input.messages);
  o.Int("display_bytes", r.display.bytes);
  o.Int("display_messages", r.display.messages);
  o.Int("total_bytes", r.total_bytes);
  o.Int("total_messages", r.total_messages);
  o.Double("avg_message_size", r.avg_message_size);
  o.Int("packets", r.packets);
  o.Int("vip_bytes", r.vip_bytes);
  o.Raw("run", RunJson(r.run));
  return o.Finish();
}

std::string ToJson(const ChaosPoint& r) {
  JsonObject o;
  o.Str("experiment", "chaos_point");
  o.Str("os", r.os_name);
  o.Double("loss_rate", r.loss_rate);
  o.Double("flap_ms", r.flap_ms);
  o.Double("p50_ms", r.p50_ms);
  o.Double("p99_ms", r.p99_ms);
  o.Double("mean_ms", r.mean_ms);
  o.Double("perceptible_fraction", r.perceptible_fraction);
  o.Bool("crosses_threshold", r.crosses_threshold);
  o.Int("updates", r.updates);
  o.Int("link_frames_sent", r.link_frames_sent);
  o.Int("link_frames_delivered", r.link_frames_delivered);
  o.Int("link_frames_lost", r.link_frames_lost);
  o.Int("retransmissions", r.retransmissions);
  o.Raw("faults", FaultsJson(r.faults));
  return FinishReport(o, r.blame, r.slo, r.run);
}

std::string ToJson(const WanPoint& r) {
  JsonObject o;
  o.Str("experiment", "wan_point");
  o.Str("os", r.os_name);
  o.Str("profile", r.profile);
  o.Bool("degrade", r.degrade);
  o.Int("users", r.users);
  o.Double("worst_p99_ms", r.worst_p99_ms);
  o.Double("mean_ms", r.mean_ms);
  o.Double("perceptible_fraction", r.perceptible_fraction);
  o.Double("availability", r.availability);
  o.Double("worst_starved_fraction", r.worst_starved_fraction);
  o.Int("updates", r.updates);
  o.Int("link_frames_sent", r.link_frames_sent);
  o.Int("link_frames_delivered", r.link_frames_delivered);
  o.Int("link_frames_lost", r.link_frames_lost);
  o.Int("degradation_peak_level", r.degradation_peak_level);
  o.Int("degradation_transitions", r.degradation_transitions);
  o.Double("degraded_seconds", r.degraded_seconds);
  o.Int("animation_frames_skipped", r.animation_frames_skipped);
  o.Int("background_frames_drawn", r.background_frames_drawn);
  o.Raw("faults", FaultsJson(r.faults));
  return FinishReport(o, r.blame, r.slo, r.run);
}

std::string WhatIfBlockJson(const WhatIfResult& r) {
  JsonObject w;
  w.Int("interactions", r.interactions);
  w.Int("baseline_p99_us", r.baseline_p99_us);
  w.Int("predicted_p99_us", r.predicted_p99_us);
  w.Int("achieved_p99_us", r.achieved_p99_us);
  w.Int("predicted_delta_us", r.predicted_delta_us);
  w.Int("achieved_delta_us", r.achieved_delta_us);
  w.Int("critical_path_mismatches", r.critical_path_mismatches);
  return w.Finish();
}

std::string ToJson(const WhatIfResult& r) {
  JsonObject o;
  o.Str("experiment", "whatif");
  o.Str("os", r.os_name);
  o.Str("profile", r.profile);
  o.Str("component", r.component);
  o.Double("speedup", r.speedup);
  o.Int("rtt_delta_us", r.rtt_delta_us);
  o.Raw("whatif", WhatIfBlockJson(r));
  o.Raw("baseline", ToJson(r.baseline));
  o.Raw("adjusted", ToJson(r.adjusted));
  o.Raw("run", RunJson(r.run));
  return o.Finish();
}

std::string ToJson(const AnimationLoadResult& r) {
  JsonObject o;
  o.Str("experiment", "gif_animation");
  o.Str("protocol", r.protocol);
  o.Double("mean_mbps", r.mean_mbps);
  o.Double("sustained_mbps", r.sustained_mbps);
  o.Int("cache_hits", r.cache_hits);
  o.Int("cache_misses", r.cache_misses);
  o.Double("cumulative_hit_ratio", r.cumulative_hit_ratio);
  o.Raw("run", RunJson(r.run));
  return o.Finish();
}

}  // namespace tcs
