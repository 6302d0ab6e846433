// Shared-medium network link.
//
// Models the paper's testbed segment: 10 Mbps shared (half-duplex) Ethernet, so traffic in
// both directions contends for one FIFO transmission queue. A frame waits for all earlier
// frames, is serialized at the link rate, then arrives after the propagation delay.
// Figures 8 and 9 (RTT and jitter vs offered load) are pure consequences of this queue.
//
// Faults: an attached LinkFaultInjector classifies each frame (delivered, lost,
// corrupted, or swallowed by an outage window). A lost frame still occupies the wire —
// the sender cannot know — but its delivery callback reports failure, which is what
// ReliableChannel's retransmission timers key off. With no injector the fault path is a
// single null-pointer branch and behaviour is bit-identical to the fault-free model.

#ifndef TCS_SRC_NET_LINK_H_
#define TCS_SRC_NET_LINK_H_

#include <cstdint>
#include <deque>

#include "src/fault/fault_injector.h"
#include "src/obs/trace.h"
#include "src/sim/inline_callback.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/units.h"
#include "src/util/stats.h"
#include "src/util/time_series.h"

namespace tcs {

class FlightRecorder;

struct LinkConfig {
  BitsPerSecond rate = BitsPerSecond::Mbps(10);
  Duration propagation = Duration::Micros(50);
  Bytes mtu = Bytes::Of(1500);  // max payload+transport+network bytes per frame
  // Link-layer framing (Ethernet MAC + FCS) that rides on every frame but does not count
  // against the MTU. A send larger than mtu+framing is fragmented into multiple frames.
  Bytes framing = Bytes::Of(18);
  // Resolution of the carried-load time series.
  Duration load_bucket = Duration::Seconds(1);
  // Model half-duplex CSMA/CD contention: frames sent while the medium has been busy
  // suffer collision/backoff delay with probability rising with recent utilization.
  // (The paper's testbed was shared 10 Mbps Ethernet; FIFO-only queueing understates
  // its near-saturation delay by roughly 2x.)
  bool csma_cd = false;
  Duration backoff_slot = Duration::Micros(51);  // 512 bit times at 10 Mbps
  uint64_t seed = 0x5EED;
};

// Throws tcs::ConfigError on a zero rate, non-positive MTU, zero load bucket, negative
// propagation, or (with csma_cd) a non-positive backoff slot. Returns the config.
LinkConfig Validated(LinkConfig config);

// Anything that can carry an MTU-bounded frame: the raw Link, or a ReliableChannel that
// recovers the Link's losses. MessageSender segments protocol messages onto one of these.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  // Queues a frame of `wire_bytes`; `delivered` (optional) fires when the last bit
  // arrives at the far end (for reliable transports: in order, after any recovery).
  virtual void Send(Bytes wire_bytes, InlineCallback delivered = nullptr) = 0;

  // The underlying link's configuration (MTU, rate) for segmentation arithmetic.
  virtual const LinkConfig& config() const = 0;
};

class Link : public FrameTransport {
 public:
  Link(Simulator& sim, LinkConfig config = {});

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Queues a frame of `wire_bytes` for transmission; `delivered` (optional) fires when the
  // last bit arrives at the far end. Sends larger than mtu+framing are fragmented into
  // multiple frames (each queued separately); `delivered` fires when the last fragment
  // lands, and only if every fragment survived any attached fault injector.
  void Send(Bytes wire_bytes, InlineCallback delivered = nullptr) override;

  // Fate-reporting send: `done` (optional) always fires at the would-be delivery time,
  // with ok=false when the frame (any fragment) was lost/corrupted/in an outage.
  // Reliable transports use this as their loss-detection oracle. `retransmit` marks the
  // send as a retransmission for the wire ledger (blame decomposition only; it does not
  // change transmission behaviour in any way).
  void SendEx(Bytes wire_bytes, InlineFunction<void(bool ok)> done,
              bool retransmit = false);

  const LinkConfig& config() const override { return config_; }
  int64_t frames_sent() const { return frames_sent_; }
  // Every transmission attempt either arrives or does not: frames_sent() ==
  // frames_delivered() + frames_lost(), always.
  int64_t frames_delivered() const { return frames_delivered_; }
  int64_t frames_lost() const { return frames_lost_; }
  Bytes bytes_carried() const { return bytes_carried_; }

  // Queueing delay experienced by each frame (time from Send() to transmission start,
  // including any CSMA/CD backoff).
  const RunningStats& queue_delay() const { return queue_delay_; }

  // Total CSMA/CD backoff delay injected so far (a component of queue_delay()).
  Duration backoff_total() const { return backoff_total_; }

  // Carried bytes per load_bucket (for "network load vs time" plots).
  const TimeSeries& load_series() const { return load_; }

  // Fraction of capacity used so far.
  double UtilizationOver(Duration window) const;

  // Time at which everything currently queued will have finished transmitting.
  TimePoint busy_until() const { return busy_until_; }

  int64_t collisions() const { return collisions_; }

  // Bytes still waiting for (or in) transmission at `now` — the wire-time backlog
  // converted back to bytes at the effective (WAN-aware) link rate. Used by queue-depth
  // gauges and by the WAN drop-tail bound.
  Bytes BacklogBytesAt(TimePoint now) const;

  // Effective serialization rates. With no WAN profile both equal config().rate; a WAN
  // profile's asymmetric down/up rates override them (down: display-direction frames on
  // this wire; up: input-direction messages and returning ACKs).
  BitsPerSecond DownRate() const;
  BitsPerSecond UpRate() const;

  // WAN extra one-way delay applied to the most recently queued frame (zero on a LAN).
  // The session pipeline adds this to its last-bit delivery estimate so painted-latency
  // accounting sees the same transit the wire does.
  Duration last_wan_extra() const { return last_wan_extra_; }

  // The jitter component of last_wan_extra() (the draw above the profile's fixed
  // extra_delay; zero on a LAN or a jitter-free profile). Blame decomposition splits
  // the WAN transit into a propagation part and this jitter part.
  Duration last_wan_jitter() const { return last_wan_jitter_; }

  // Wire ledger for blame decomposition: when enabled, every frame that occupies the
  // wire is recorded as a [start, end) occupancy slot tagged retransmit-or-not. The
  // ledger adds no events and consumes no randomness, so outputs stay byte-identical
  // whether or not it is on; it is off by default and enabled by servers that attribute
  // per-interaction latency.
  void EnableWireLedger() { wire_ledger_enabled_ = true; }

  // Microseconds of wire occupancy still pending at `now` that belong to retransmitted
  // frames: sum over unfinished retransmit slots of end - max(now, start). Zero unless
  // the wire ledger is enabled. Used to split display-leg backlog into bufferbloat
  // queueing vs retransmit-wait.
  int64_t PendingRetransmitWireUs(TimePoint now);

  // Frames dropped at the tail of the bounded WAN bufferbloat queue (they never occupied
  // the wire; counted in frames_lost() so sent == delivered + lost still holds).
  int64_t wan_queue_drops() const { return wan_queue_drops_; }

  // Fault injection (non-owning; null = healthy link, the default).
  void SetFaultInjector(LinkFaultInjector* injector) { fault_ = injector; }
  LinkFaultInjector* fault_injector() const { return fault_; }

  // Observability: each frame becomes a net-category span over its serialization window.
  void SetTracer(Tracer* tracer);

  // Flight recorder: each frame becomes a compact net record (bytes + queue delay).
  void SetFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  // Extra delay from CSMA/CD contention for a frame starting at `start`.
  Duration ContentionDelay(TimePoint start);
  // Queues one MTU-bounded frame; returns whether it will arrive and sets `delivery` to
  // its last-bit-plus-propagation time.
  bool TransmitFrame(Bytes frame_bytes, TimePoint* delivery);
  // Fragments `wire_bytes` into MTU-bounded frames and queues them all; returns whether
  // every fragment will arrive and sets `delivery` to the last fragment's arrival time.
  bool TransmitAll(Bytes wire_bytes, TimePoint* delivery);

  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  LinkFaultInjector* fault_ = nullptr;
  Tracer* tracer_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  TraceTrack trace_track_;
  TimePoint busy_until_ = TimePoint::Zero();
  int64_t frames_sent_ = 0;
  int64_t frames_delivered_ = 0;
  int64_t frames_lost_ = 0;
  int64_t collisions_ = 0;
  Bytes bytes_carried_ = Bytes::Zero();
  RunningStats queue_delay_;
  Duration backoff_total_ = Duration::Zero();
  TimeSeries load_;
  // Sliding recent-utilization estimate (exponentially smoothed busy fraction).
  double recent_utilization_ = 0.0;
  TimePoint last_send_ = TimePoint::Zero();
  Duration last_wan_extra_ = Duration::Zero();
  Duration last_wan_jitter_ = Duration::Zero();
  int64_t wan_queue_drops_ = 0;
  // Wire ledger (blame decomposition): pending [start, end) occupancy slots, pruned
  // lazily as their end times pass. Empty unless EnableWireLedger() was called.
  struct WireSlot {
    int64_t start_us = 0;
    int64_t end_us = 0;
    bool retransmit = false;
  };
  std::deque<WireSlot> wire_slots_;
  bool wire_ledger_enabled_ = false;
  // Set by SendEx for the duration of the TransmitAll it triggers, so TransmitFrame can
  // tag the resulting wire slots.
  bool sending_retransmit_ = false;
};

}  // namespace tcs

#endif  // TCS_SRC_NET_LINK_H_
