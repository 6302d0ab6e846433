// Deterministic fault plans.
//
// A FaultPlan composes scripted and seeded-probabilistic degradations of the testbed:
// frame loss/corruption and outage windows ("flaps") on the link, latency spikes and
// transient I/O errors on the paging disk, and session disconnects / daemon crashes on
// the server. Every fault decision is keyed to virtual time and drawn from a dedicated
// Rng seeded by the plan, so a faulted run is byte-identical across reruns and across
// ParallelSweep worker counts — and an empty plan leaves every existing random stream
// untouched (injectors are simply not constructed).

#ifndef TCS_SRC_FAULT_FAULT_PLAN_H_
#define TCS_SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/units.h"

namespace tcs {

// One link outage: frames whose transmission overlaps [from, until) are lost.
// Scripted windows must be non-overlapping and sorted by `from`. Adjacent windows
// (one ending exactly where the next begins) are legal and behave exactly like the
// single merged window — LinkFaultInjector normalizes them at construction.
struct OutageWindow {
  TimePoint from;
  TimePoint until;
};

// Coalesces touching windows: sorts by `from` and merges any window whose start is at or
// before the previous window's end. The result is sorted, non-overlapping, and
// non-adjacent, so every overlap query and outage-time sum sees each covered instant
// exactly once. Empty windows (until <= from) must have been rejected by Validate first.
std::vector<OutageWindow> MergeAdjacentOutages(std::vector<OutageWindow> windows);

// WAN pathology profile for the session link. All-defaults (Any() == false) is a LAN:
// no extra delay, symmetric configured bandwidth, unbounded FIFO, no burst loss — and
// the link consumes no additional random stream, so empty-profile runs stay
// byte-identical with pre-WAN builds.
struct WanLinkPlan {
  // Extra one-way transit delay per frame (half the profile's extra RTT), applied on top
  // of the link's propagation delay in both directions.
  Duration extra_delay = Duration::Zero();
  // Per-frame uniform jitter in [0, jitter) added to extra_delay, drawn from the
  // injector's dedicated WAN stream (frame fates are never perturbed).
  Duration jitter = Duration::Zero();
  // Asymmetric bandwidth: serialization rate for display-direction (down) frames and for
  // input-direction (up) messages. Zero = the link's configured rate.
  BitsPerSecond down_rate = BitsPerSecond();
  BitsPerSecond up_rate = BitsPerSecond();
  // Bounded bufferbloat queue: when the wire backlog exceeds this many bytes, newly
  // queued frames are dropped at the tail (they never occupy the wire). Zero = unbounded.
  Bytes queue_bytes = Bytes::Zero();
  // Gilbert–Elliott burst loss: a two-state (good/bad) chain stepped once per frame.
  // In the good state frames are lost with ge_loss_good, in the bad state with
  // ge_loss_bad; the chain moves good->bad with ge_p_good_to_bad and bad->good with
  // ge_p_bad_to_good. All four zero disables the chain entirely.
  double ge_p_good_to_bad = 0.0;
  double ge_p_bad_to_good = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.0;

  bool HasGilbertElliott() const {
    return ge_p_good_to_bad > 0.0 || ge_loss_good > 0.0 || ge_loss_bad > 0.0;
  }
  bool Any() const {
    return extra_delay > Duration::Zero() || jitter > Duration::Zero() ||
           down_rate.bps() > 0 || up_rate.bps() > 0 || queue_bytes.count() > 0 ||
           HasGilbertElliott();
  }
};

struct LinkFaultPlan {
  // Per-frame Bernoulli loss (the frame occupies the wire but never arrives).
  double loss_rate = 0.0;
  // Per-frame corruption: the frame arrives, fails its checksum, and is discarded —
  // indistinguishable from loss to the transport, but counted separately.
  double corruption_rate = 0.0;
  // Scripted outages, e.g. a cable pull at a known virtual time.
  std::vector<OutageWindow> scripted_outages;
  // Seeded-probabilistic flaps: mean up-time between outages and mean outage length
  // (both jittered +/-50% by the fault Rng). Zero disables random flaps.
  Duration flap_every = Duration::Zero();
  Duration flap_duration = Duration::Zero();
  // WAN pathology profile (delay/jitter, asymmetric bandwidth, bounded bufferbloat
  // queue, Gilbert–Elliott burst loss). Empty by default.
  WanLinkPlan wan;

  bool Any() const {
    return loss_rate > 0.0 || corruption_rate > 0.0 || !scripted_outages.empty() ||
           (flap_every > Duration::Zero() && flap_duration > Duration::Zero()) ||
           wan.Any();
  }
};

struct DiskFaultPlan {
  // Per-request probability of a 200 ms latency spike (thermal recalibration, firmware
  // GC).
  double stall_rate = 0.0;
  // Per-request probability of a transient I/O error; the request is retried after
  // 50 ms, re-paying its full service time (at most 3 retries).
  double error_rate = 0.0;

  bool Any() const { return stall_rate > 0.0 || error_rate > 0.0; }
};

struct SessionFaultPlan {
  // Mean connected time between forced disconnects (jittered +/-50%); zero = never.
  // Disconnects rotate over logged-in sessions, and each client reconnects 500 ms later.
  Duration disconnect_every = Duration::Zero();
  // Mean time between idle-daemon crashes (round-robin over the profile's daemons);
  // zero = never. A crashed daemon misses its periods, then restarts 200 ms later
  // paying one extra episode of CPU (the restart storm).
  Duration daemon_crash_every = Duration::Zero();

  bool Any() const {
    return disconnect_every > Duration::Zero() || daemon_crash_every > Duration::Zero();
  }
};

struct FaultPlan {
  LinkFaultPlan link;
  DiskFaultPlan disk;
  SessionFaultPlan session;
  // Root seed for every fault decision. Independent of model seeds so enabling faults
  // never perturbs workload/scheduler/disk random streams.
  uint64_t seed = 0xFA017;

  bool Any() const { return link.Any() || disk.Any() || session.Any(); }
};

// Throws tcs::ConfigError on out-of-range rates or inconsistent windows.
void Validate(const FaultPlan& plan);

// Cross-layer fault/recovery accounting attached to experiment results. `active` is set
// only when the run carried a non-empty FaultPlan; reports omit the block otherwise, so
// fault-free output stays byte-identical with pre-fault builds.
struct FaultStats {
  bool active = false;
  // 1 - (link outage time + session disconnected time) / run duration, clamped to [0,1].
  double availability = 1.0;
  // Stalled disk requests / total disk requests.
  double disk_stall_rate = 0.0;
  uint64_t frames_lost = 0;       // loss + outage drops on the link (incl. burst loss)
  uint64_t frames_corrupted = 0;  // checksum failures (also never delivered)
  uint64_t burst_losses = 0;      // subset of frames_lost from the Gilbert–Elliott chain
  uint64_t wan_queue_drops = 0;   // drop-tail overflows of the WAN bufferbloat queue
  uint64_t retransmissions = 0;   // ReliableChannel RTO-driven resends
  uint64_t frames_shed = 0;       // sends refused by ReliableChannel's bounded window
  uint64_t input_frames_lost = 0; // keystroke-channel losses (recovered by retry)
  uint64_t disconnects = 0;
  uint64_t dropped_keystrokes = 0;  // typed while the session was disconnected
  uint64_t daemon_crashes = 0;
  uint64_t disk_stalls = 0;
  uint64_t io_errors = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_FAULT_FAULT_PLAN_H_
