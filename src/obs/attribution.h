// Per-interaction latency attribution: where did the milliseconds go?
//
// The paper's method is attributing user-perceived latency to a resource — processor,
// memory, or network. A LatencyAttribution engine makes that decomposition a first-class
// experiment output: every injected interaction (keystroke) is minted an id at
// workload-injection time, and the server threads that id through the full pipeline,
// splitting the end-to-end latency into exact integer-microsecond stages:
//
//   input-net     input-channel queueing + serialization + propagation + outage hold
//   retransmit    input-frame retry penalty under a lossy FaultPlan
//   sched-wait    pipeline-busy wait + run-queue wait + preemption + switch overhead
//   cpu-service   application CPU on the keystroke pipeline's non-encode hops
//   mem-stall     page-fault/disk time making the editor's working set resident
//   proto-encode  display/protocol hops (kernel display path, RDP encoder, bitmap cache)
//   display-net   display-channel queueing + serialization + propagation
//   client-decode decode + blit on the user's machine
//   degradation-hold  coalesce hold imposed by the DegradationController (only while
//                     degraded; zero — and omitted from reports — otherwise)
//
// WAN-aware decomposition: the display-net stage additionally splits into five exact
// sub-stages (propagation / serialization / bufferbloat-queueing / retransmit-wait /
// jitter) recorded in InteractionRecord::net_us. The sub-stages are timestamp
// differences against the link's wire ledger and WAN transit draws, so they telescope
// too: sum(net_us) == stage_us[display-net] exactly, checked per commit.
//
// Accounting invariant: every stage is a difference of pipeline timestamps that
// telescope, so sum(stage micros) == end-to-end micros *exactly* for every committed
// interaction, and no stage is negative, so the stages tile [sent, painted] in order.
// Debug builds assert the sum per commit; `accounting_mismatches()` counts records that
// break either half in every build type.
//
// What-if prediction: PredictAdjustedTotalUs() rescales one record's stages under a
// virtual speedup of a single component (link rate x k, CPU x k, disk x k, RTT - d) and
// returns the predicted end-to-end total. RunWhatIf (core/experiments) compares this
// prediction against an actual re-simulation. Limits: the prediction rescales the
// affected stages in isolation — it cannot see second-order effects (shorter
// serialization drains queues faster, fewer RTO expiries, different batching), which is
// exactly the gap the achieved-vs-predicted report quantifies.
//
// Null-sink contract (same as the Tracer): layers hold a `LatencyAttribution*` defaulting
// to nullptr, and a disabled engine costs one branch per would-be record and zero
// allocations. Determinism contract: ids are minted in injection order, payloads carry
// only virtual-time stamps, and Collect() output is byte-identical across reruns and
// ParallelSweep worker counts.

#ifndef TCS_SRC_OBS_ATTRIBUTION_H_
#define TCS_SRC_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/arena.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace tcs {

class FlightRecorder;

enum class AttrStage : int {
  kInputNet = 0,
  kRetransmit,
  kSchedWait,
  kCpuService,
  kMemStall,
  kProtoEncode,
  kDisplayNet,
  kClientDecode,
  // Appended last so existing stage indices (and the golden corpus's 8-stage blame
  // blocks) are unchanged; Collect() includes its summary only when its total is
  // nonzero, i.e. only for runs with an active DegradationController.
  kDegradationHold,
};

inline constexpr int kAttrStageCount = 9;

const char* AttrStageName(AttrStage stage);

// Exact decomposition of the display-net stage (WAN-aware blame). Order matters: it is
// the synthesized happens-before order of the sub-intervals inside [emitted, delivered].
enum class NetSubStage : int {
  kQueueing = 0,     // wire backlog ahead of this update (minus retransmit share)
  kRetransmitWait,   // backlog share occupied by retransmitted frames
  kSerialization,    // this update's own bits on the wire
  kPropagation,      // fixed one-way transit (LAN propagation + WAN extra_delay)
  kJitter,           // the WAN jitter draw on the last frame
};

inline constexpr int kNetSubStageCount = 5;

const char* NetSubStageName(NetSubStage stage);

// Everything known about one interaction (one pipeline pass; `batch` > 1 when repeats
// coalesced into it): the one decomposition of a keystroke's latency. The server fills
// it on every pass and hands it to Session::set_on_frame_painted; an attached engine
// also commits it. Timestamps are virtual micros; the id (0 without an engine) and
// stamps are the only identity — no pointers, no wall clock — so records serialize
// deterministically.
struct InteractionRecord {
  static constexpr int kMaxHops = 8;

  uint64_t id = 0;        // minted at injection time, in injection order
  int batch = 1;          // keystrokes coalesced into this pass
  int hop_count = 0;      // pipeline hops recorded below
  int64_t sent_us = 0;       // user's machine sent the keystroke
  int64_t arrived_us = 0;    // input message reached the server
  int64_t pass_start_us = 0; // pipeline pass began (batch frozen)
  int64_t mem_done_us = 0;   // working set resident
  int64_t emitted_us = 0;    // display update queued on the link
  int64_t delivered_us = 0;  // last bit of the update delivered
  int64_t painted_us = 0;    // client decode + blit finished
  int64_t stage_us[kAttrStageCount] = {};
  // Display-net decomposition; sums to stage_us[kDisplayNet] exactly (checked per
  // commit). All zero when the serving pipeline has no attached client.
  int64_t net_us[kNetSubStageCount] = {};

  // Per-hop detail for the trace spans: [start, end] wall extent, the exact CPU service
  // charged, whether the hop is a protocol-encode stage, and its interned name (null when
  // tracing is off).
  int64_t hop_start_us[kMaxHops] = {};
  int64_t hop_end_us[kMaxHops] = {};
  int64_t hop_service_us[kMaxHops] = {};
  bool hop_encode[kMaxHops] = {};
  const char* hop_name[kMaxHops] = {};

  int64_t total_us() const { return painted_us - sent_us; }
  int64_t StageSum() const;
  int64_t NetSum() const;
};

// Aggregate view of one stage over a run: exact-microsecond totals and nearest-rank
// percentiles (nearest-rank keeps every reported value an actually observed sample, so
// percentiles stay integers and byte-identical across worker counts).
struct StageSummary {
  std::string stage;
  int64_t count = 0;     // interactions with a nonzero entry possible; always == commits
  int64_t total_us = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
  double share = 0.0;    // total_us over the sum of all stages' totals
};

struct AttributionResult {
  bool active = false;
  int64_t interactions = 0;  // committed pipeline passes
  int64_t keystrokes = 0;    // sum of batch sizes over commits
  uint64_t minted = 0;       // ids handed out at injection (>= keystrokes committed)
  int64_t accounting_mismatches = 0;  // commits whose stages did not sum to the total
  int64_t total_us = 0;      // sum of end-to-end micros over interactions
  int64_t p50_total_us = 0;
  int64_t p99_total_us = 0;
  int64_t max_total_us = 0;
  // Fixed stage order. Always the 8 classic stages; degradation-hold is appended as a
  // 9th entry only when it accrued time (keeps pre-degradation reports byte-identical).
  std::vector<StageSummary> stages;
  std::string top_stage;  // largest p99 contribution; empty with no interactions
  // Display-net decomposition summaries (kNetSubStageCount entries, sub-stage order).
  // Empty unless AttributionConfig.decompose_network.
  std::vector<StageSummary> net_stages;
  int64_t net_mismatches = 0;  // commits whose net_us did not sum to display-net
};

struct AttributionConfig {
  // With a tracer, every commit emits per-stage spans on the "blame" process's
  // net/cpu/mem/proto/client tracks plus Perfetto flow events (ph "s"/"t"/"f") linking
  // one interaction's spans across those tracks.
  Tracer* tracer = nullptr;
  // With a flight recorder, every commit leaves one compact blame span (sent -> painted,
  // flow id == interaction id) in the always-on ring, so a frozen postmortem window can
  // name the exact interactions that straddled the violation.
  FlightRecorder* recorder = nullptr;
  // Retain every InteractionRecord for tests/tools (off by default: aggregation only).
  bool keep_records = false;
  // Aggregate per-sub-stage display-net decomposition samples and surface them in
  // Collect().net_stages (off by default so existing reports keep their exact bytes;
  // the per-record net_us fields and the sum invariant are maintained regardless).
  bool decompose_network = false;
};

class LatencyAttribution {
 public:
  explicit LatencyAttribution(AttributionConfig config = {});

  LatencyAttribution(const LatencyAttribution&) = delete;
  LatencyAttribution& operator=(const LatencyAttribution&) = delete;

  // Called at workload-injection time; ids are sequential from 1 in injection order.
  uint64_t MintInteraction() { return ++minted_; }

  // Ingests one finished interaction: checks the accounting invariant (asserted in debug
  // builds), aggregates per-stage samples, and emits trace spans + flow events when a
  // tracer is attached.
  void Commit(const InteractionRecord& rec);

  Tracer* tracer() const { return config_.tracer; }
  int64_t committed() const { return committed_; }
  int64_t accounting_mismatches() const { return mismatches_; }
  int64_t net_mismatches() const { return net_mismatches_; }

  // Deterministic aggregate: same commits in, same bytes out (no wall clock, no
  // addresses), regardless of reruns or sweep worker counts.
  AttributionResult Collect() const;

  // Empty unless config.keep_records.
  const ArenaColumn<InteractionRecord>& records() const { return records_; }

 private:
  void EmitTrace(const InteractionRecord& rec);

  AttributionConfig config_;
  uint64_t minted_ = 0;
  int64_t committed_ = 0;
  int64_t keystrokes_ = 0;
  int64_t mismatches_ = 0;
  int64_t net_mismatches_ = 0;
  int64_t total_us_sum_ = 0;
  int64_t stage_total_us_[kAttrStageCount] = {};
  int64_t net_total_us_[kNetSubStageCount] = {};
  // All per-commit storage bump-allocates from the arena: no element-wise growth copies
  // on the Commit path, teardown frees a handful of blocks. Collect() sorts transient
  // copies of the columns; it runs once or twice per run.
  BumpArena arena_;
  ArenaColumn<int64_t> stage_samples_[kAttrStageCount];
  ArenaColumn<int64_t> net_samples_[kNetSubStageCount];  // decompose_network only
  ArenaColumn<int64_t> total_samples_;
  ArenaColumn<InteractionRecord> records_;
  // Blame tracks, registered at construction (registration order == construction order).
  TraceTrack net_track_;
  TraceTrack cpu_track_;
  TraceTrack mem_track_;
  TraceTrack proto_track_;
  TraceTrack client_track_;
};

// A counterfactual: virtually speed up one component and ask what the interaction's
// end-to-end total would have been.
struct WhatIfAdjustment {
  enum class Component { kLink, kCpu, kDisk, kRtt };
  Component component = Component::kLink;
  // For kLink/kCpu/kDisk: the speedup factor k (> 0); affected segments scale by 1/k.
  double speedup = 2.0;
  // For kRtt: total round-trip reduction in microseconds, split evenly across the two
  // one-way legs and clamped so neither goes negative.
  int64_t rtt_delta_us = 0;
};

const char* WhatIfComponentName(WhatIfAdjustment::Component component);

// Predicted end-to-end total under the adjustment:
//   kLink  scales bufferbloat queueing + retransmit wait + serialization (display leg),
//   kCpu   scales cpu-service + proto-encode,
//   kDisk  scales mem-stall,
//   kRtt   subtracts delta/2 from display-leg propagation and delta/2 from input-net,
//          each clamped at zero.
// Integer microseconds, deterministic (llround of one IEEE-754 division per record).
int64_t PredictAdjustedTotalUs(const InteractionRecord& rec, const WhatIfAdjustment& adj);

}  // namespace tcs

#endif  // TCS_SRC_OBS_ATTRIBUTION_H_
