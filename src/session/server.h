// The thin-client server: one box composing the CPU (with the profile's scheduler), the
// paging subsystem, the network link, the remote-display protocol, the idle-state
// daemons, and the logged-in sessions. This is the system under test in every experiment.

#ifndef TCS_SRC_SESSION_SERVER_H_
#define TCS_SRC_SESSION_SERVER_H_

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/client/thin_client.h"
#include "src/cpu/cpu.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/mem/pager.h"
#include "src/net/endpoint.h"
#include "src/net/flow.h"
#include "src/net/reliable.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/proto/protocol_pipeline.h"
#include "src/session/degradation.h"
#include "src/session/os_profile.h"
#include "src/sim/periodic.h"
#include "src/sim/random.h"

namespace tcs {

struct ServerConfig {
  CpuConfig cpu;
  LinkConfig link;
  // Swap partition: short seeks relative to the general-purpose default.
  DiskConfig disk = [] {
    DiskConfig d;
    d.positioning_mean = Duration::Micros(3500);
    d.positioning_stddev = Duration::Micros(1500);
    d.positioning_min = Duration::Micros(500);
    return d;
  }();
  Bytes ram = Bytes::MiB(64);  // the era's typical server memory
  EvictionPolicy eviction = EvictionPolicy::kGlobalLru;
  Duration pager_throttle = Duration::Millis(20);
  Duration tap_bucket = Duration::Seconds(1);
  uint64_t seed = 1;
  // Fault plan for this run. An empty (default) plan constructs no injectors, no reliable
  // channel, and consumes no random stream — behaviour is byte-identical to a build
  // without the fault layer. A non-empty link plan routes all protocol traffic through a
  // ReliableChannel, so losses surface as retransmission delay, not silent corruption.
  FaultPlan faults;
  // Observability (both optional, non-owning). With a tracer, every layer of the server
  // emits trace events; with a registry, the standard gauges (run-queue depth, resident
  // pages, link backlog, bitmap-cache hit rate) are registered at construction.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  // Per-interaction latency attribution (optional, non-owning). The pipeline fills each
  // pass's InteractionRecord either way; when set, every keystroke is also minted an
  // interaction id at injection time and each finished record is committed to it.
  LatencyAttribution* attribution = nullptr;
  // Always-on flight recorder (optional, non-owning). When set, the CPU, pager, link,
  // reliable channel, and session pipeline continuously append compact records into its
  // bounded ring so an SLO violation can be explained without re-running traced. Null
  // costs one branch per would-be record.
  FlightRecorder* recorder = nullptr;
  // Backpressure-driven graceful degradation. Disabled (the default) constructs no
  // controller, schedules no polls, and leaves every pipeline byte-identical to a build
  // without the degradation layer.
  DegradationConfig degradation;
};

// One logged-in user: the login's processes (and their memory), the editor GUI thread,
// and the display-pipeline worker threads keystrokes traverse.
class Session {
 public:
  uint64_t id() const { return id_; }
  // Sum of the login processes' private memory (the §5.1.1 per-user bill).
  Bytes private_memory() const { return private_memory_; }
  // Text/code the login maps but shares with every other session running the same
  // images: resident once server-wide, so only the *first* login pays it.
  Bytes shared_memory() const { return shared_memory_; }
  AddressSpace* working_set() const { return working_set_; }

  // This session's protocol pipeline and its flow-accounting tap on the shared link
  // (valid from Login until the server dies; the protocol survives Logout).
  DisplayProtocol& protocol() const { return proto_->protocol(); }
  const SessionFlow& flow() const { return *flow_; }

  // Background (non-interactive) sessions — media players, marquees — are the first
  // service the degradation ladder sacrifices (see Server::SetBackground).
  bool background() const { return background_; }

  // False while the client is forcibly disconnected (fault plan or explicit call).
  bool connected() const { return connected_; }
  // Keystrokes typed while disconnected (they never reach the server).
  int64_t dropped_keystrokes() const { return dropped_keystrokes_; }
  // Bumped on each cold restart (X-family reconnects); in-flight pipeline callbacks
  // from an older generation abandon themselves.
  uint64_t generation() const { return generation_; }

  // Invoked (with the emission time) whenever a display update for this session goes out.
  void set_on_display_update(std::function<void(TimePoint)> fn) {
    on_display_update_ = std::move(fn);
  }

  // Invoked when the update is actually on the user's glass, with the pass's record. The
  // display-net and client-decode legs are zero unless a client device is attached.
  void set_on_frame_painted(std::function<void(const InteractionRecord&)> fn) {
    on_frame_painted_ = std::move(fn);
  }

 private:
  friend class Server;

  uint64_t id_ = 0;
  TraceTrack trace_track_;  // "session/userN"; meaningful only when the server traces
  Bytes private_memory_ = Bytes::Zero();
  Bytes shared_memory_ = Bytes::Zero();
  bool connected_ = true;
  bool logged_out_ = false;  // processes torn down, memory released
  bool background_ = false;
  uint64_t generation_ = 0;
  TimePoint disconnected_at_;
  int64_t dropped_keystrokes_ = 0;
  std::vector<AddressSpace*> process_spaces_;
  std::vector<size_t> process_pages_;  // prefaulted page count per process space
  std::vector<std::string> shared_keys_;  // pager segments to release on logout
  AddressSpace* working_set_ = nullptr;
  // The session's own protocol pipeline, multiplexed over the server's one link: a
  // flow-accounting tap on the shared transport, and the message senders and encoder +
  // caches riding it. Each session encodes independently; they contend on the wire.
  std::unique_ptr<SessionFlow> flow_;
  std::optional<ProtocolPipeline> proto_;
  // Display payload accumulated since the last pipeline completion (this session's
  // client decode bill for the current update).
  Bytes update_payload_ = Bytes::Zero();
  std::vector<Thread*> pipeline_;
  int pending_keystrokes_ = 0;
  bool pipeline_busy_ = false;
  // Degradation coalesce hold in progress: the next pipeline pass bills the time since
  // hold_started_us_ to the degradation-hold stage instead of sched-wait.
  bool hold_pending_ = false;
  int64_t hold_started_us_ = 0;
  // The pending record tracks the oldest un-batched keystroke, the current one the
  // in-flight pipeline pass. Plain structs — no allocation either way.
  InteractionRecord pending_attr_;
  InteractionRecord current_attr_;
  std::function<void(TimePoint)> on_display_update_;
  std::function<void(const InteractionRecord&)> on_frame_painted_;
};

class Server {
 public:
  Server(Simulator& sim, OsProfile profile, ServerConfig config = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Arms the profile's idle-state daemons (clock tick, session manager, ...).
  void StartDaemons();

  // Logs a user in: creates the login's processes (private memory prefaulted, text
  // segments attached to the server-wide shared copies), the session's own protocol
  // pipeline on the shared link, the keystroke pipeline threads, and exchanges the
  // protocol's session-setup bytes.
  Session& Login(bool light_session = false);

  // Logs the user out: abandons in-flight pipeline work, tears down the login's
  // processes and working set, and drops its references on the shared text segments
  // (the last session out frees them). The Session object stays valid but inert.
  void Logout(Session& session);

  // One keystroke from the session's user. Input-channel traffic is generated and
  // transits the link; at the server the editor's working set is made resident (paying
  // any page-ins), the keystroke pipeline runs, and a display update is emitted. Repeats
  // arriving while the pipeline is busy coalesce into the next update, as editors drain
  // their input queues in batches.
  void Keystroke(Session& session);

  // Attaches a client device model; thereafter on_frame_painted breakdowns include the
  // display-channel transit and the client's decode+blit time.
  void AttachClient(ThinClientConfig config) {
    client_ = std::make_unique<ThinClientDevice>(config);
  }
  const ThinClientDevice* client() const { return client_.get(); }

  // Starts `count` sink CPU hogs with the profile's sink priority.
  void StartSinks(int count);

  // Forcibly drops the session's client connection: keystrokes typed until Reconnect()
  // are lost, and (for X-family protocols) the login dies with the connection.
  void Disconnect(Session& session);
  // Brings the client back. RDP/TSE sessions survive server-side and pay a cache-resync
  // burst; X-family sessions restart cold (working set swapped out, full session setup).
  void Reconnect(Session& session);

  // Fault/recovery accounting over a run of `run_duration`. `active` is false (and the
  // rest zero/identity) when the config carried an empty FaultPlan.
  FaultStats CollectFaultStats(Duration run_duration);

  int64_t disconnects() const { return disconnects_; }
  int64_t daemon_crashes() const { return daemon_crashes_; }
  Duration session_downtime() const { return session_downtime_; }

  // Marks a session as background (non-interactive). Background emitters should consult
  // degradation()->BackgroundPaused() before submitting frames.
  void SetBackground(Session& session, bool background) {
    session.background_ = background;
  }

  // Null unless the config enabled degradation.
  DegradationController* degradation() { return degradation_.get(); }

  const OsProfile& profile() const { return profile_; }
  Simulator& sim() { return sim_; }
  Cpu& cpu() { return cpu_; }
  Disk& disk() { return disk_; }
  Pager& pager() { return pager_; }
  Link& link() { return link_; }
  // Null when the fault plan has no link faults (traffic rides the raw link).
  ReliableChannel* reliable() { return reliable_.get(); }
  LinkFaultInjector* link_fault_injector() { return link_fault_.get(); }
  DiskFaultInjector* disk_fault_injector() { return disk_fault_.get(); }
  // The first session's protocol (requires a login). Each session owns its own pipeline;
  // use Session::protocol() for the others.
  DisplayProtocol& protocol() {
    assert(!sessions_.empty());
    return sessions_.front()->protocol();
  }
  ProtoTap& tap() { return tap_; }
  const std::vector<std::unique_ptr<Session>>& sessions() const { return sessions_; }

 private:
  void PostDaemonEpisode(size_t daemon_idx);
  // `interaction_id`/`retransmit_us` are the attribution identity of this keystroke
  // (zero when attribution is disabled).
  void OnKeystrokeArrived(Session& session, TimePoint sent_at, uint64_t interaction_id,
                          int64_t retransmit_us);
  void StartPipelinePass(Session& session);
  // The pipeline's continuations: the working set is resident, a hop's CPU work
  // finished, a coalesce hold ran out, a crashed daemon comes back.
  void OnWorkingSetResident(Session& session, int batch, uint64_t gen);
  void RunHop(Session& session, size_t hop, int batch, uint64_t gen);
  void OnHopDone(Session& session, size_t hop, int batch, uint64_t gen);
  void CompletePipeline(Session& session, int batch);
  void OnHoldExpired(Session& session, uint64_t gen);
  void RestartDaemon(size_t daemon_idx);
  // Transit time of a small input message through the link right now (queue + wire).
  Duration InputTransitDelay() const;
  // Bitmap payload scale pushed into protocols at `level` (1.0 below kHardCache).
  double DegradedPayloadScale(int level) const;
  // Arms the plan's scheduled session disconnects / daemon crashes (ctor, when enabled).
  void ArmFaultSchedule();
  void ScheduleNextDisconnect();
  void ScheduleNextDaemonCrash();
  void FireDisconnect();
  void FireDaemonCrash();

  Simulator& sim_;
  OsProfile profile_;
  ServerConfig config_;
  Rng rng_;
  Cpu cpu_;
  Disk disk_;
  Pager pager_;
  Link link_;
  // Fault wiring: all null/absent with an empty plan, so the fault-free path is identical
  // to a build without the fault layer.
  std::unique_ptr<LinkFaultInjector> link_fault_;
  std::unique_ptr<DiskFaultInjector> disk_fault_;
  std::unique_ptr<ReliableChannel> reliable_;
  // Constructed only when config_.degradation.enabled; polls display-channel pressure
  // (link backlog + reliable in-flight bytes) and pushes levels into session pipelines.
  std::unique_ptr<DegradationController> degradation_;
  ProtoTap tap_;
  Rng fault_rng_;  // schedule jitter for disconnects/crashes; consumed only when armed
  TraceTrack fault_track_;  // "fault/server": daemon crashes and other server-wide faults
  std::unique_ptr<ThinClientDevice> client_;
  // The bitmap-cache gauge attaches to the first RDP session's cache at its Login (per
  // session there is a cache; the gauge follows the first as the representative).
  bool bitmap_gauge_registered_ = false;

  struct DaemonRuntime {
    DaemonSpec spec;
    Thread* thread;
    std::unique_ptr<PeriodicTask> task;
  };
  std::vector<DaemonRuntime> daemons_;
  std::vector<std::unique_ptr<Session>> sessions_;
  // Interned pipeline-hop names for the records' trace spans (empty unless the
  // attribution engine carries a tracer).
  std::vector<const char*> hop_trace_names_;

  size_t disconnect_rr_ = 0;  // round-robin cursors for scheduled faults
  size_t daemon_rr_ = 0;
  int64_t disconnects_ = 0;
  int64_t daemon_crashes_ = 0;
  int64_t dropped_keystrokes_ = 0;
  Duration session_downtime_ = Duration::Zero();  // closed disconnect intervals
};

// Throws tcs::ConfigError on non-positive RAM or tap bucket, a negative pager throttle,
// or an invalid fault plan. Returns the config. (RAM vs the profile's idle system memory
// is checked in the Server constructor, where the profile is known.)
ServerConfig Validated(ServerConfig config);

}  // namespace tcs

#endif  // TCS_SRC_SESSION_SERVER_H_
