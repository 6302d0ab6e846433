// Reliable, in-order frame delivery over a lossy Link.
//
// A minimal TCP-flavoured ARQ model: every frame gets a sequence number and a
// retransmission timer (RTO = clamp(2 x SRTT, [min_rto, max_rto]), doubled per attempt —
// Karn-style: only never-retransmitted frames contribute RTT samples). Lost frames are
// retransmitted until they land; the receiver releases frames strictly in order, so one
// lost frame head-of-line blocks everything behind it — exactly the stall the paper's
// interactive sessions feel on a congested segment.
//
// Modelling simplification (documented, deliberate): ACKs are carried out-of-band — they
// pay serialization + propagation delay but do not occupy the shared link and are never
// themselves lost. This keeps the recovery dynamics (RTO inflation, HOL blocking) while
// avoiding ack-clocking artefacts that the paper's measurements cannot calibrate.
//
// Determinism: the channel consumes no randomness of its own; all nondeterminism comes
// from the Link's fault injector. Identical seeds give identical retransmit schedules.

#ifndef TCS_SRC_NET_RELIABLE_H_
#define TCS_SRC_NET_RELIABLE_H_

#include <cstdint>
#include <map>

#include "src/net/link.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/sim/units.h"

namespace tcs {

struct ReliableChannelConfig {
  // Floor on the retransmission timeout. Era TCP stacks ran 200-500 ms retransmit timer
  // granularity, so a single loss cost an interactive session a humanly visible stall.
  Duration min_rto = Duration::Millis(200);
  Duration max_rto = Duration::Seconds(2);
  Bytes ack_bytes = Bytes::Of(64);  // minimum Ethernet frame for the return ACK
  // Safety valve against pathological plans (e.g. loss_rate=1.0 forever): after this many
  // attempts a frame is abandoned and counted, so bounded-horizon runs always drain.
  int max_attempts = 24;
  // Bound on frames in flight (sent but not yet retired). A Send() arriving with the
  // window full is shed immediately — counted in frames_shed(), never given a sequence
  // number, its callback never fires — so a long outage cannot grow the retransmit queue
  // without limit. 0 disables the bound. The default is far above anything an interactive
  // session queues on a healthy link, so only pathological plans ever shed.
  int64_t window_frames = 4096;
};

// Throws tcs::ConfigError on a non-positive min_rto, max_rto < min_rto, max_attempts < 1,
// non-positive ack_bytes, or negative window_frames. Returns the config.
ReliableChannelConfig Validated(ReliableChannelConfig config);

class ReliableChannel : public FrameTransport {
 public:
  ReliableChannel(Simulator& sim, Link& link, ReliableChannelConfig config = {});

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Queues `wire_bytes` for reliable in-order delivery; `delivered` fires once the frame
  // (and every frame sent before it) has arrived at the far end; an abandoned frame's
  // never fires.
  void Send(Bytes wire_bytes, InlineCallback delivered = nullptr) override;

  const LinkConfig& config() const override { return link_.config(); }

  Link& link() { return link_; }

  // Frames accepted from callers (originals, not attempts).
  int64_t frames_sent() const { return frames_sent_; }
  // Extra transmission attempts beyond the first. Link attempts == originals' first
  // transmissions + retransmissions(), so link frame counters reconcile exactly.
  int64_t retransmissions() const { return retransmissions_; }
  int64_t acks_received() const { return acks_received_; }
  // Frames released to their delivery callbacks, in order.
  int64_t frames_delivered() const { return frames_delivered_; }
  // Frames given up on after max_attempts (only under pathological fault plans).
  int64_t frames_abandoned() const { return frames_abandoned_; }
  // Frames refused at Send() because the in-flight window was full (never sequenced;
  // their callbacks never fire). The degradation controller treats a rising shed count
  // as the strongest backpressure signal.
  int64_t frames_shed() const { return frames_shed_; }
  // Frames currently in flight (sent but not yet fully retired).
  int64_t frames_in_flight() const { return static_cast<int64_t>(records_.size()); }
  // Frames currently in flight (sent but not yet retired) as a fraction of the window;
  // 0 when the bound is disabled. This is the channel's backpressure gauge.
  double WindowFill() const {
    return config_.window_frames > 0
               ? static_cast<double>(records_.size()) /
                     static_cast<double>(config_.window_frames)
               : 0.0;
  }
  // True once the window is at least half full — the channel is visibly struggling to
  // retire frames and senders should start slowing down.
  bool InBackpressure() const { return WindowFill() >= 0.5; }
  // Smoothed RTT estimate (zero until the first sample).
  Duration srtt() const { return srtt_; }

  // Each retransmission becomes an instant on a net-category "reliable" track.
  void SetTracer(Tracer* tracer);

  // Flight recorder: each retransmission becomes a compact net instant (seq + attempt).
  void SetFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  struct Record {
    Bytes bytes = Bytes::Zero();
    InlineCallback delivered;
    int attempts = 0;
    Duration rto = Duration::Zero();
    TimePoint sent_at = TimePoint::Zero();  // most recent transmission time
    EventId timer;  // default-constructed = invalid
    bool ever_retransmitted = false;
    bool acked = false;     // sender side: retransmit timer retired
    bool arrived = false;   // receiver side: frame present, may await in-order release
    bool released = false;  // receiver side: delivery callback fired
  };
  void Transmit(uint64_t seq);
  void OnOutcome(uint64_t seq, TimePoint sent_at, bool ok);
  void OnTimeout(uint64_t seq);
  void OnAck(uint64_t seq, TimePoint sent_at, bool was_clean_sample);
  void ReleaseInOrder();
  void MaybeErase(uint64_t seq);
  Duration CurrentRtoBase() const;

  Simulator& sim_;
  Link& link_;
  ReliableChannelConfig config_;
  Tracer* tracer_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  TraceTrack trace_track_;
  std::map<uint64_t, Record> records_;
  uint64_t next_seq_ = 0;
  uint64_t next_release_ = 0;  // lowest seq not yet released to its callback
  Duration srtt_ = Duration::Zero();
  int64_t frames_sent_ = 0;
  int64_t retransmissions_ = 0;
  int64_t acks_received_ = 0;
  int64_t frames_delivered_ = 0;
  int64_t frames_abandoned_ = 0;
  int64_t frames_shed_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_NET_RELIABLE_H_
