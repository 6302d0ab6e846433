#include "src/session/server.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/util/config_error.h"
#include "src/workload/sink.h"

namespace tcs {

namespace {

// The protocol tap buckets its byte counts per second.
constexpr Duration kTapBucket = Duration::Seconds(1);
// A disconnected client tries to reconnect after this long; a crashed idle daemon
// restarts after this long.
constexpr Duration kReconnectAfter = Duration::Millis(500);
constexpr Duration kDaemonRestartAfter = Duration::Millis(200);
// A full frame on the wire. The WAN queue gauge counts its backlog in these, and the
// degradation ladder bills each unretired frame at one.
constexpr Bytes kFullFrame = kMtu + kEthernetFraming;

PagerConfig MakePagerConfig(const OsProfile& profile, const ServerConfig& cfg) {
  PagerConfig pc;
  Bytes user_ram = cfg.ram - profile.idle_system_memory;
  if (user_ram.count() <= 0) {
    throw ConfigError("ServerConfig.ram",
                      "RAM must exceed the profile's idle system memory");
  }
  pc.total_frames = PagesFor(user_ram);
  if (pc.total_frames > AddressSpace::kMaxFrames) {
    throw ConfigError("ServerConfig.ram",
                      "user RAM above the " + std::to_string(AddressSpace::kMaxFrames) +
                          " 4 KiB frames a page entry can index");
  }
  pc.cluster_pages = profile.pager_cluster_pages;
  pc.policy = cfg.eviction;
  return pc;
}

FrameTransport& PickTransport(std::unique_ptr<ReliableChannel>& reliable, Link& link) {
  if (reliable != nullptr) {
    return *reliable;
  }
  return link;
}

constexpr int Idx(AttrStage stage) { return static_cast<int>(stage); }
constexpr int Idx(NetSubStage stage) { return static_cast<int>(stage); }

}  // namespace

ServerConfig Validated(ServerConfig config) {
  if (config.ram.count() <= 0) {
    throw ConfigError("ServerConfig.ram", "RAM must be positive");
  }
  Validate(config.faults);
  return config;
}

Server::Server(Simulator& sim, OsProfile profile, ServerConfig config)
    : sim_(sim),
      profile_(std::move(profile)),
      config_(Validated(std::move(config))),
      emit_(config_.tracer, config_.recorder),
      rng_(config_.seed),
      cpu_(sim, profile_.MakeScheduler(), config_.cpu),
      disk_(sim, rng_.Fork(), config_.disk),
      pager_(sim, disk_, MakePagerConfig(profile_, config_)),
      link_(sim),
      link_fault_(config_.faults.link.Any()
                      ? std::make_unique<LinkFaultInjector>(config_.faults.link,
                                                            config_.faults.seed)
                      : nullptr),
      disk_fault_(config_.faults.disk.Any()
                      ? std::make_unique<DiskFaultInjector>(config_.faults.disk,
                                                            config_.faults.seed ^ 0xD15Cull)
                      : nullptr),
      reliable_(link_fault_ != nullptr ? std::make_unique<ReliableChannel>(sim, link_)
                                       : nullptr),
      tap_(kTapBucket),
      fault_rng_(config_.faults.seed ^ 0xC0FFEEull) {
  if (link_fault_ != nullptr) {
    link_.SetFaultInjector(link_fault_.get());
  }
  if (disk_fault_ != nullptr) {
    disk_.SetFaultInjector(disk_fault_.get());
  }
  cpu_.Attach(emit_);
  pager_.Attach(emit_);
  disk_.Attach(emit_);
  link_.Attach(emit_);
  if (link_fault_ != nullptr) {
    link_fault_->Attach(emit_);
  }
  if (reliable_ != nullptr) {
    reliable_->Attach(emit_);
  }
  if (config_.faults.session.Any()) {
    fault_track_ = emit_.Track("fault", "server");
  }
  if (config_.metrics != nullptr) {
    config_.metrics->AddGauge("runq_depth", [this] {
      return static_cast<double>(cpu_.scheduler().ReadyCount());
    });
    config_.metrics->AddGauge("resident_pages", [this] {
      return static_cast<double>(pager_.frames_used());
    });
    config_.metrics->AddGauge("link_backlog_bytes", [this] {
      return static_cast<double>(link_.BacklogBytesAt(sim_.Now()).count());
    });
    // The bitmap-cache gauge is per-protocol and protocols now live per session: the
    // first RDP Login registers it (see Login).
    // Fault gauges only exist on faulted runs, so fault-free metric output is unchanged.
    if (config_.faults.Any()) {
      config_.metrics->AddGauge("link_frames_lost", [this] {
        return static_cast<double>(link_.frames_lost());
      });
      config_.metrics->AddGauge("retransmissions", [this] {
        return reliable_ != nullptr ? static_cast<double>(reliable_->retransmissions())
                                    : 0.0;
      });
      config_.metrics->AddGauge("sessions_disconnected", [this] {
        double n = 0.0;
        for (const auto& s : sessions_) {
          if (!s->connected_) {
            n += 1.0;
          }
        }
        return n;
      });
      // WAN backpressure gauges: bufferbloat queue depth in full frames, and the
      // reliable channel's send-window fill fraction. Sampled into metrics.csv so
      // bufferbloat onset is visible in-run, not only in the post-hoc report ledger.
      config_.metrics->AddGauge("wan_queue_depth", [this] {
        return static_cast<double>(link_.BacklogBytesAt(sim_.Now()).count()) /
               static_cast<double>(kFullFrame.count());
      });
      config_.metrics->AddGauge("reliable_window_fill", [this] {
        return reliable_ != nullptr ? reliable_->WindowFill() : 0.0;
      });
    }
  }
  if (profile_.keystroke_pipeline.size() >
      static_cast<size_t>(InteractionRecord::kMaxHops)) {
    throw ConfigError("OsProfile.keystroke_pipeline",
                      "an interaction record holds at most 8 pipeline hops");
  }
  if (config_.attribution != nullptr) {
    if (config_.attribution->tracer() != nullptr) {
      for (const PipelineHop& hop : profile_.keystroke_pipeline) {
        hop_trace_names_.push_back(InternName(hop.name));
      }
    }
    // Attributed runs split display-net into queueing/retransmit-wait/serialization/
    // propagation/jitter; the retransmit share needs the link's wire ledger. Pure
    // bookkeeping (no events, no randomness), so enabling it never perturbs a run.
    link_.EnableWireLedger();
  }
  if (config_.faults.session.Any()) {
    ArmFaultSchedule();
  }
  if (config_.degradation.enabled) {
    // Pressure = display-channel bytes not yet retired: the wire backlog plus (with a
    // reliable channel) everything sent but unacked, each frame billed at a full MTU.
    degradation_ = std::make_unique<DegradationController>(
        sim_, config_.degradation, [this]() -> int64_t {
          int64_t pressure = link_.BacklogBytesAt(sim_.Now()).count();
          if (reliable_ != nullptr) {
            pressure += reliable_->frames_in_flight() * kFullFrame.count();
          }
          return pressure;
        });
    degradation_->set_on_transition([this](int /*from*/, int /*to*/, TimePoint /*at*/) {
      double scale = 1.0 / degradation_->CacheBoost();
      for (const auto& s : sessions_) {
        s->protocol().SetDegradedPayloadScale(scale);
      }
    });
    degradation_->Attach(emit_);
    degradation_->Start();
  }
}

void Server::StartDaemons() {
  if (!daemons_.empty()) {
    return;
  }
  for (const DaemonSpec& spec : profile_.idle_daemons) {
    DaemonRuntime rt;
    rt.spec = spec;
    rt.thread = cpu_.CreateThread(spec.name, spec.cls, spec.priority);
    daemons_.push_back(std::move(rt));
  }
  // Arm after the vector is stable (PeriodicTask captures the runtime slot).
  for (size_t i = 0; i < daemons_.size(); ++i) {
    DaemonRuntime& rt = daemons_[i];
    rt.task = std::make_unique<PeriodicTask>(sim_, rt.spec.period,
                                             [this, i] { PostDaemonEpisode(i); });
    rt.task->Start(rt.spec.phase);
  }
}

void Server::PostDaemonEpisode(size_t daemon_idx) {
  Thread* thread = daemons_[daemon_idx].thread;
  const DaemonSpec& spec = daemons_[daemon_idx].spec;
  // An episode of E total CPU at duty d: chunks of (10 ms * d) posted every 10 ms, so the
  // episode occupies ~E/d of wall time at utilization d — Figure 1's plateaus and
  // Figure 2's long per-thread events at once.
  Duration chunk = spec.duty >= 1.0
                       ? spec.episode_cpu
                       : std::max(Duration::Micros(100), Duration::Millis(10) * spec.duty);
  Duration remaining = spec.episode_cpu;
  int k = 0;
  while (remaining > Duration::Zero()) {
    Duration c = std::min(chunk, remaining);
    sim_.Schedule(Duration::Millis(10) * k,
                  [this, thread, c] { cpu_.PostWork(*thread, c); });
    remaining -= c;
    ++k;
  }
}

Session& Server::Login(bool light_session) {
  sessions_.push_back(std::make_unique<Session>());
  Session& s = *sessions_.back();
  s.id_ = sessions_.size();
  s.trace_track_ = emit_.Track("session", "user" + std::to_string(s.id_));

  const std::vector<ProcessSpec>& processes =
      light_session ? profile_.light_login_processes : profile_.login_processes;
  for (const ProcessSpec& proc : processes) {
    AddressSpace* as = pager_.CreateAddressSpace(/*interactive=*/true);
    size_t pages = std::max<size_t>(1, PagesFor(proc.private_memory));
    pager_.Prefault(*as, 0, pages);
    s.process_spaces_.push_back(as);
    s.process_pages_.push_back(pages);
    s.private_memory_ += proc.private_memory;
    // The image's text segment: one resident copy server-wide. The first login to run
    // the process prefaults it; later sessions just attach to it (§5.1.1's
    // sublinear per-user growth).
    if (proc.shared_text.count() > 0) {
      SharedSegment seg = pager_.AcquireShared("text:" + proc.name, /*interactive=*/true);
      if (seg.created) {
        pager_.Prefault(*seg.space, 0, std::max<size_t>(1, PagesFor(proc.shared_text)));
      }
      s.shared_memory_ += proc.shared_text;
    }
  }
  // The editor's keystroke-path working set (code + data across the involved processes).
  s.working_set_ = pager_.CreateAddressSpace(/*interactive=*/true);
  pager_.Prefault(*s.working_set_, 0, profile_.editor_working_set_pages);

  for (const PipelineHop& hop : profile_.keystroke_pipeline) {
    s.pipeline_.push_back(cpu_.CreateThread(hop.name, hop.cls, hop.priority));
  }

  // The session's own protocol pipeline: a flow-accounting tap on the one shared
  // transport, its message senders, and a fresh encoder + caches.
  s.flow_ = std::make_unique<SessionFlow>(PickTransport(reliable_, link_));
  s.proto_.emplace(profile_.protocol_kind, sim_, *s.flow_, &tap_, rng_.Fork());
  DisplayProtocol& encoder = s.protocol();
  Session* sp = &s;
  encoder.set_display_message_hook([sp](Bytes payload) { sp->update_payload_ += payload; });
  encoder.Attach(emit_);
  if (degradation_ != nullptr) {
    // A login mid-degradation joins the ladder at the current level.
    encoder.SetDegradedPayloadScale(1.0 / degradation_->CacheBoost());
  }
  if (config_.metrics != nullptr && !bitmap_gauge_registered_) {
    if (const BitmapCache* cache = s.proto_->cache()) {
      config_.metrics->AddGauge("bitmap_cache_hit_rate",
                                [cache] { return cache->CumulativeHitRatio(); });
      bitmap_gauge_registered_ = true;
    }
  }

  // Session negotiation and initialization traffic (§6.1.1).
  s.proto_->display().SendMessage(encoder.session_setup_bytes());
  return s;
}

void Server::StartSinks(int count) {
  tcs::StartSinks(cpu_, count, profile_.sink_priority, profile_.sink_class);
}

Duration Server::InputTransitDelay() const {
  // A keystroke-sized frame (64 B payload + wire headers) queued behind whatever the
  // link is carrying right now, plus propagation.
  Duration queue = Duration::Zero();
  if (link_.busy_until() > sim_.Now()) {
    queue = link_.busy_until() - sim_.Now();
  }
  // Input rides the return direction: on an asymmetric WAN profile it serializes at the
  // (usually narrower) uplink rate.
  Bytes wire = Bytes::Of(64) + HeaderModel::TcpIp().WirePerPacket();
  return queue + TransmissionDelay(wire, link_.UpRate()) + kPropagation;
}

void Server::Keystroke(Session& session) {
  if (!session.connected_) {
    // Typed into a dead connection: the client buffers nothing, the keystroke is gone.
    ++session.dropped_keystrokes_;
    ++dropped_keystrokes_;
    return;
  }
  TimePoint sent_at = sim_.Now();
  session.protocol().SubmitInput(InputEvent::Key(true));
  session.protocol().SubmitInput(InputEvent::Key(false));
  Duration transit = InputTransitDelay();
  if (link_fault_ != nullptr && link_fault_->wan_active()) {
    // WAN input leg: extra one-way delay plus jitter from the dedicated input stream.
    transit += link_fault_->WanInputExtra();
  }
  Duration retransmit = Duration::Zero();
  if (link_fault_ != nullptr) {
    // Lost input frames are recovered by retransmission (200 ms base RTO, the reliable
    // channel's default) and outages pin the message behind the window.
    transit +=
        link_fault_->InputDelayPenalty(sent_at, Duration::Millis(200), &retransmit);
  }
  // With an engine, mint the interaction id at injection time; it and the retry split
  // ride the arrival event (the capture still fits the callback's inline buffer).
  // Without one both stay zero and the input-net stage keeps the retry time.
  uint64_t id = 0;
  int64_t retransmit_us = 0;
  if (config_.attribution != nullptr) {
    id = config_.attribution->MintInteraction();
    retransmit_us = retransmit.ToMicros();
  }
  sim_.Schedule(transit, [this, &session, sent_at, id, retransmit_us] {
    OnKeystrokeArrived(session, sent_at, id, retransmit_us);
  });
}

void Server::OnKeystrokeArrived(Session& session, TimePoint sent_at,
                                uint64_t interaction_id, int64_t retransmit_us) {
  emit_.Span(TraceCategory::kSession, "input-net", session.trace_track_, sent_at,
             sim_.Now(), {"session", static_cast<int64_t>(session.id_)},
             {"retransmit_us", retransmit_us}, interaction_id);
  if (session.pending_keystrokes_ == 0) {
    // A batch is attributed to its oldest keystroke; later coalesced repeats keep their
    // minted ids but fold into this record's batch count.
    InteractionRecord& rec = session.pending_attr_;
    rec = InteractionRecord{};
    rec.id = interaction_id;
    rec.sent_us = sent_at.ToMicros();
    rec.arrived_us = sim_.Now().ToMicros();
    rec.stage_us[Idx(AttrStage::kRetransmit)] = retransmit_us;
    // Queueing + serialization + propagation + any outage hold: everything of the input
    // leg that is not retry time.
    rec.stage_us[Idx(AttrStage::kInputNet)] =
        (rec.arrived_us - rec.sent_us) - retransmit_us;
  }
  ++session.pending_keystrokes_;
  if (!session.pipeline_busy_) {
    session.pipeline_busy_ = true;
    StartPipelinePass(session);
  }
}

void Server::StartPipelinePass(Session& session) {
  uint64_t gen = session.generation_;
  int batch = session.pending_keystrokes_;
  session.pending_keystrokes_ = 0;
  assert(batch > 0);
  // Freeze this batch's record before new keystrokes overwrite the pending one.
  session.current_attr_ = session.pending_attr_;
  InteractionRecord& rec = session.current_attr_;
  rec.batch = batch;
  rec.pass_start_us = sim_.Now().ToMicros();
  // Time the batch's oldest keystroke sat behind the previous pipeline pass. When the
  // DegradationController held the pipeline between passes, the tail of that wait (from
  // the hold's start, clipped to the keystroke's own arrival) is the controller's doing,
  // not the scheduler's: bill it to the degradation-hold stage so degraded runs don't
  // masquerade as scheduler contention. Both stages remain telescoping timestamp
  // differences, so the stage-sum invariant is untouched.
  int64_t wait = rec.pass_start_us - rec.arrived_us;
  int64_t hold_billed = 0;
  if (session.hold_pending_) {
    hold_billed = std::max<int64_t>(
        0, rec.pass_start_us - std::max(rec.arrived_us, session.hold_started_us_));
    hold_billed = std::min(hold_billed, wait);
  }
  session.hold_pending_ = false;
  rec.stage_us[Idx(AttrStage::kSchedWait)] += wait - hold_billed;
  rec.stage_us[Idx(AttrStage::kDegradationHold)] += hold_billed;
  // The editor cannot echo until the keystroke path's working set is resident (§5.2):
  // page in anything a streaming job evicted, then run the hops. The fraction of the
  // working set a particular keystroke touches varies (profile-calibrated).
  double frac = profile_.ws_touch_min +
                rng_.NextDouble() * (profile_.ws_touch_max - profile_.ws_touch_min);
  auto pages = static_cast<size_t>(
      frac * static_cast<double>(profile_.editor_working_set_pages));
  pages = std::max<size_t>(1, pages);
  pager_.AccessRange(
      *session.working_set_, 0, pages, /*write=*/false,
      [this, &session, batch, gen] { OnWorkingSetResident(session, batch, gen); });
}

void Server::OnWorkingSetResident(Session& session, int batch, uint64_t gen) {
  if (session.generation_ != gen) {
    return;  // the session restarted cold while we paged in
  }
  InteractionRecord& rec = session.current_attr_;
  rec.mem_done_us = sim_.Now().ToMicros();
  rec.stage_us[Idx(AttrStage::kMemStall)] = rec.mem_done_us - rec.pass_start_us;
  RunHop(session, 0, batch, gen);
}

void Server::RunHop(Session& session, size_t hop, int batch, uint64_t gen) {
  assert(hop < session.pipeline_.size());
  const PipelineHop& spec = profile_.keystroke_pipeline[hop];
  Duration work = spec.work;
  if (hop == 0 && batch > 1) {
    // Echoing a drained batch costs a little more than a single character.
    work += Duration::Micros(50) * (batch - 1);
  }
  WakeReason reason = hop == 0 ? WakeReason::kInputEvent : WakeReason::kOther;
  InteractionRecord& rec = session.current_attr_;
  rec.hop_start_us[hop] = sim_.Now().ToMicros();
  // The hop's exact CPU bill at this machine's speed; OnHopDone splits the hop's elapsed
  // time into this service and run-queue wait.
  rec.hop_service_us[hop] = cpu_.ScaledCost(work).ToMicros();
  rec.hop_encode[hop] = spec.encode;
  rec.hop_name[hop] = hop < hop_trace_names_.size() ? hop_trace_names_[hop] : nullptr;
  rec.hop_count = static_cast<int>(hop) + 1;
  cpu_.PostWork(
      *session.pipeline_[hop], work,
      [this, &session, hop, batch, gen] { OnHopDone(session, hop, batch, gen); }, reason);
}

void Server::OnHopDone(Session& session, size_t hop, int batch, uint64_t gen) {
  if (session.generation_ != gen) {
    return;  // abandoned by a cold restart
  }
  InteractionRecord& rec = session.current_attr_;
  rec.hop_end_us[hop] = sim_.Now().ToMicros();
  int64_t elapsed = rec.hop_end_us[hop] - rec.hop_start_us[hop];
  int64_t service = std::min(rec.hop_service_us[hop], elapsed);
  rec.hop_service_us[hop] = service;
  rec.stage_us[rec.hop_encode[hop] ? Idx(AttrStage::kProtoEncode)
                                   : Idx(AttrStage::kCpuService)] += service;
  rec.stage_us[Idx(AttrStage::kSchedWait)] += elapsed - service;
  if (hop + 1 < session.pipeline_.size()) {
    RunHop(session, hop + 1, batch, gen);
  } else {
    CompletePipeline(session, batch);
  }
}

void Server::CompletePipeline(Session& session, int batch) {
  if (!session.connected_) {
    // The update has nowhere to go; drain any pre-disconnect backlog, then idle.
    if (session.pending_keystrokes_ > 0) {
      StartPipelinePass(session);
    } else {
      session.pipeline_busy_ = false;
    }
    return;
  }
  // Pre-flush wire snapshot for the display-net decomposition: the backlog ahead of
  // this update, and the share of it occupied by retransmitted frames. Taken before the
  // flush queues the update's own frames so "queueing ahead of me" and "my own bits"
  // stay distinct.
  int64_t backlog_us = 0;
  int64_t retrans_wait_us = 0;
  if (client_ != nullptr) {
    TimePoint now = sim_.Now();
    if (link_.busy_until() > now) {
      backlog_us = (link_.busy_until() - now).ToMicros();
    }
    retrans_wait_us = std::min(backlog_us, link_.PendingRetransmitWireUs(now));
  }
  session.update_payload_ = Bytes::Zero();
  session.protocol().SubmitDraw(DrawCommand::Text(batch));
  session.protocol().Flush();
  TimePoint emitted = sim_.Now();
  // The update's frames were just queued: the link's horizon is their last bit.
  TimePoint delivered = emitted;
  Duration decode = Duration::Zero();
  if (client_ != nullptr) {
    delivered =
        std::max(emitted, link_.busy_until()) + kPropagation + link_.last_wan_extra();
    decode = client_->DecodeDelay(profile_.protocol_kind, session.update_payload_);
  }
  TimePoint painted = delivered + decode;
  // The display leg is already determined here (the frames are on the link, the decode
  // bill is a pure function of the payload), so the record is final at emission and the
  // invariant can be checked synchronously.
  InteractionRecord& rec = session.current_attr_;
  rec.emitted_us = emitted.ToMicros();
  rec.delivered_us = delivered.ToMicros();
  rec.painted_us = painted.ToMicros();
  rec.stage_us[Idx(AttrStage::kDisplayNet)] = rec.delivered_us - rec.emitted_us;
  rec.stage_us[Idx(AttrStage::kClientDecode)] = rec.painted_us - rec.delivered_us;
  if (client_ != nullptr) {
    // Decompose display-net against the same arithmetic that produced `delivered`:
    //   delivered = max(emitted, busy_until) + propagation + last_wan_extra
    // Queueing is the pre-flush backlog minus its retransmit share; serialization is
    // this update's own wire occupancy (post-flush horizon minus emitted minus backlog);
    // jitter is the WAN draw above the profile's fixed extra delay; and propagation is
    // the exact residual (LAN propagation + WAN extra_delay), so the five sub-stages
    // telescope to the display-net stage by construction.
    int64_t wire_done_us = link_.busy_until().ToMicros();
    int64_t queue_us = backlog_us - retrans_wait_us;
    int64_t serialize_us =
        std::max<int64_t>(0, wire_done_us - (rec.emitted_us + backlog_us));
    int64_t jitter_us = link_.last_wan_jitter().ToMicros();
    rec.net_us[Idx(NetSubStage::kQueueing)] = queue_us;
    rec.net_us[Idx(NetSubStage::kRetransmitWait)] = retrans_wait_us;
    rec.net_us[Idx(NetSubStage::kSerialization)] = serialize_us;
    rec.net_us[Idx(NetSubStage::kJitter)] = jitter_us;
    rec.net_us[Idx(NetSubStage::kPropagation)] =
        rec.stage_us[Idx(AttrStage::kDisplayNet)] - queue_us - retrans_wait_us -
        serialize_us - jitter_us;
  }
  if (config_.attribution != nullptr) {
    config_.attribution->Commit(rec);
  }
  const TimePoint arrived = TimePoint::FromMicros(rec.arrived_us);
  emit_.Span(TraceCategory::kSession, "keystroke-batch", session.trace_track_, arrived,
             emitted, {"batch", static_cast<int64_t>(batch)},
             {"session", static_cast<int64_t>(session.id_)}, rec.id);
  if (session.on_display_update_) {
    session.on_display_update_(emitted);
  }
  if (session.on_frame_painted_) {
    if (client_ != nullptr) {
      auto cb = session.on_frame_painted_;
      sim_.At(painted, [cb, rec] { cb(rec); });
    } else {
      session.on_frame_painted_(rec);
    }
  }
  if (session.pending_keystrokes_ > 0) {
    Duration hold =
        degradation_ != nullptr ? degradation_->CoalesceHold() : Duration::Zero();
    if (hold > Duration::Zero()) {
      // Degraded: hold the pipeline so further keystrokes coalesce into one fatter,
      // cheaper batch. The pipeline stays busy through the hold; the next pass bills
      // the hold window to the degradation-hold attribution stage (see
      // StartPipelinePass), keeping the stage-sum invariant while naming the
      // controller, not the scheduler, as the cause.
      session.hold_pending_ = true;
      session.hold_started_us_ = sim_.Now().ToMicros();
      uint64_t gen = session.generation_;
      sim_.Schedule(hold, [this, &session, gen] { OnHoldExpired(session, gen); });
    } else {
      StartPipelinePass(session);
    }
  } else {
    session.pipeline_busy_ = false;
  }
}

void Server::OnHoldExpired(Session& session, uint64_t gen) {
  if (session.generation_ != gen) {
    return;  // restarted cold during the hold
  }
  if (session.pending_keystrokes_ > 0) {
    StartPipelinePass(session);
  } else {
    session.hold_pending_ = false;
    session.pipeline_busy_ = false;
  }
}

void Server::Disconnect(Session& session) {
  if (!session.connected_) {
    return;
  }
  session.connected_ = false;
  session.disconnected_at_ = sim_.Now();
  ++disconnects_;
  emit_.Trace().Instant(TraceCategory::kFault, "disconnect", session.trace_track_,
                        sim_.Now());
}

void Server::Reconnect(Session& session) {
  if (session.connected_) {
    return;
  }
  session.connected_ = true;
  session_downtime_ += sim_.Now() - session.disconnected_at_;
  emit_.Trace().Span(TraceCategory::kFault, "disconnected", session.trace_track_,
                     session.disconnected_at_, sim_.Now());
  if (profile_.protocol_kind == ProtocolKind::kRdp) {
    // TSE keeps the session alive server-side; the returning client arrives with cold
    // caches. Invalidate them and pay a resync burst — a fraction of full session setup
    // (capability re-negotiation plus a screen repaint's worth of orders).
    session.protocol().OnSessionReconnect();
    session.proto_->display().SendMessage(
        Bytes::Of(session.protocol().session_setup_bytes().count() / 4));
  } else {
    // X-family sessions die with the transport: the login restarts cold. Everything the
    // old processes had resident is gone, in-flight pipeline work is abandoned, and the
    // full session negotiation replays.
    ++session.generation_;
    session.pending_keystrokes_ = 0;
    session.pipeline_busy_ = false;
    session.hold_pending_ = false;
    session.protocol().OnSessionReconnect();
    for (size_t i = 0; i < session.process_spaces_.size(); ++i) {
      pager_.MarkSwappedOut(*session.process_spaces_[i], 0, session.process_pages_[i]);
    }
    pager_.MarkSwappedOut(*session.working_set_, 0, profile_.editor_working_set_pages);
    session.proto_->display().SendMessage(session.protocol().session_setup_bytes());
  }
}

void Server::ArmFaultSchedule() {
  const SessionFaultPlan& sp = config_.faults.session;
  if (sp.disconnect_every > Duration::Zero()) {
    ScheduleNextDisconnect();
  }
  if (sp.daemon_crash_every > Duration::Zero()) {
    ScheduleNextDaemonCrash();
  }
}

void Server::ScheduleNextDisconnect() {
  // +/-50% jitter from the fault stream keeps disconnects from phase-locking with the
  // typing cadence while staying reproducible for a given plan seed.
  Duration delay = config_.faults.session.disconnect_every * (0.5 + fault_rng_.NextDouble());
  sim_.Schedule(delay, [this] {
    FireDisconnect();
    ScheduleNextDisconnect();
  });
}

void Server::FireDisconnect() {
  if (sessions_.empty()) {
    return;  // nobody logged in yet; the schedule keeps ticking
  }
  Session& s = *sessions_[disconnect_rr_++ % sessions_.size()];
  if (!s.connected_) {
    return;  // already down (reconnect pending)
  }
  Disconnect(s);
  Session* sp = &s;
  sim_.Schedule(kReconnectAfter, [this, sp] { Reconnect(*sp); });
}

void Server::ScheduleNextDaemonCrash() {
  Duration delay =
      config_.faults.session.daemon_crash_every * (0.5 + fault_rng_.NextDouble());
  sim_.Schedule(delay, [this] {
    FireDaemonCrash();
    ScheduleNextDaemonCrash();
  });
}

void Server::FireDaemonCrash() {
  if (daemons_.empty()) {
    return;  // daemons never started; nothing to kill
  }
  size_t idx = daemon_rr_++ % daemons_.size();
  DaemonRuntime& rt = daemons_[idx];
  if (rt.task == nullptr || !rt.task->IsRunning()) {
    return;  // already down (restart pending)
  }
  rt.task->Stop();
  ++daemon_crashes_;
  emit_.Trace().Instant(TraceCategory::kFault, InternName("crash:" + rt.spec.name),
                        fault_track_, sim_.Now());
  sim_.Schedule(kDaemonRestartAfter, [this, idx] { RestartDaemon(idx); });
}

void Server::RestartDaemon(size_t daemon_idx) {
  DaemonRuntime& rt = daemons_[daemon_idx];
  if (rt.task->IsRunning()) {
    return;
  }
  rt.task->Start(rt.spec.phase);
  // Restart storm: the reborn daemon immediately replays one episode of work.
  PostDaemonEpisode(daemon_idx);
}

FaultStats Server::CollectFaultStats(Duration run_duration) {
  FaultStats st;
  st.active = config_.faults.Any();
  if (!st.active) {
    return st;
  }
  st.frames_lost = static_cast<uint64_t>(link_.frames_lost());
  st.wan_queue_drops = static_cast<uint64_t>(link_.wan_queue_drops());
  if (link_fault_ != nullptr) {
    st.frames_corrupted = static_cast<uint64_t>(link_fault_->frames_corrupted());
    st.input_frames_lost = static_cast<uint64_t>(link_fault_->input_frames_lost());
    st.burst_losses = static_cast<uint64_t>(link_fault_->burst_losses());
  }
  if (reliable_ != nullptr) {
    st.retransmissions = static_cast<uint64_t>(reliable_->retransmissions());
    st.frames_shed = static_cast<uint64_t>(reliable_->frames_shed());
  }
  st.disconnects = static_cast<uint64_t>(disconnects_);
  st.dropped_keystrokes = static_cast<uint64_t>(dropped_keystrokes_);
  st.daemon_crashes = static_cast<uint64_t>(daemon_crashes_);
  if (disk_fault_ != nullptr) {
    st.disk_stalls = static_cast<uint64_t>(disk_fault_->stalls());
    st.io_errors = static_cast<uint64_t>(disk_fault_->io_errors());
    st.disk_stall_rate = disk_fault_->StallRate();
  }
  // Availability: link outage time plus mean per-session disconnected time (closed
  // intervals plus any still open) over the run duration.
  Duration down = session_downtime_;
  for (const auto& s : sessions_) {
    if (!s->connected_) {
      down += sim_.Now() - s->disconnected_at_;
    }
  }
  Duration outage = Duration::Zero();
  if (link_fault_ != nullptr) {
    outage = link_fault_->OutageTimeBefore(sim_.Now());
  }
  if (run_duration > Duration::Zero()) {
    Duration per_session_down =
        sessions_.empty() ? down : down / static_cast<int64_t>(sessions_.size());
    double unavail = (outage + per_session_down) / run_duration;
    st.availability = std::clamp(1.0 - unavail, 0.0, 1.0);
  }
  return st;
}

}  // namespace tcs
