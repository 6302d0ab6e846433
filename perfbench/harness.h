// Shared machinery of the perfbench program: step timing and its summaries, report
// digests, and the traced run's span log and per-event dispatch timer.
//
// Everything here measures the simulator from outside: the benchmark times its own calls
// into the library's public functions and reads the layers' public counters.

#ifndef TCS_PERFBENCH_HARNESS_H_
#define TCS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The seed of the `index`-th input drawn from the run's --seed (SplitMix64), so the
// same --seed always yields the same input sequence.
uint64_t InputSeed(uint64_t seed, uint64_t index);

// FNV-1a of a deterministic report rendering, as 16 hex digits.
std::string Digest(const std::string& text);

double Median(std::vector<double> v);

// A timing tail, nearest-rank, at `percentile`. `beyond` is the number of samples above it.
struct Tail {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v, double percentile);

// The host's speed, measured by timing a fixed reference load between steps.
//
// A shared host's speed swings by up to 2x over seconds to minutes with the load of its
// other tenants (contention in shared cores and caches; CPU steal stays under 1%), and
// every host-time metric swings with it. The reference load is a fixed mix of the kinds
// of work the simulator does: a timestamp heap, an ordered map built node by node, and a
// miniature discrete-event loop of std::function callbacks. It lives here, so no change
// to the simulator changes it. The host's current slowdown is the median of the load's
// last kWindow timings over kReferenceMs, its time on the unloaded host.
class HostSpeed {
 public:
  static constexpr double kReferenceMs = 8.0;
  static constexpr size_t kWindow = 5;

  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  // Times the reference load once.
  void Probe();
  // 1.0 before the first probe.
  double Slowdown() const;
  double MedianProbeMs() const { return Median(probe_ms_); }
  size_t probes() const { return probe_ms_.size(); }

 private:
  std::vector<uint64_t> heap_;
  uint64_t key_ = 0;
  uint64_t sink_ = 0;
  std::vector<double> probe_ms_;
};

// Host time of each timed step and the simulated time it advanced. Steps are grouped
// into rounds (one cycle of a workload's inputs, the same shape every round); the
// throughput is the median of the rounds' rates, and the tail is taken over the round's
// profile: each position's median over the rounds. So a burst of load from outside the
// process, which slows a few steps or one round, moves neither.
//
// An untraced run starts with a warm-up round whose steps are checked but not timed.
// When it ends, StartTiming builds the reference load; from then on it runs after any
// step once kProbePeriodMs have passed, and every host time is divided by the slowdown
// current when it was measured. Where steps are short, the step right after the load
// ran starts on the caches it flushed, so it is left out. A traced run times every step
// as measured, so its traced and untraced copies compare like for like.
class StepLog {
 public:
  static constexpr double kProbePeriodMs = 100.0;

  // `warm_up`: the first round is not timed and host times are normalized.
  // `short_steps`: leave out the step after each run of the reference load.
  StepLog(bool warm_up, bool short_steps) : timing_(!warm_up), short_steps_(short_steps) {}

  bool timing() const { return timing_; }
  // Ends the warm-up.
  void StartTiming();
  // `ms` at the reference host speed.
  double Normalize(double ms) const { return speed_ ? ms / speed_->Slowdown() : ms; }
  void Add(double step_ms, double step_sim_s);
  void EndRound();

  const std::vector<double>& ms() const { return ms_; }
  double host_ms() const { return host_ms_; }
  double SimPerHostS() const { return Median(round_rates_); }
  size_t rounds() const { return round_rates_.size(); }
  // For each position of a step within its round, the median of its timed steps.
  std::vector<double> Profile() const;
  const HostSpeed* speed() const { return speed_.get(); }

 private:
  bool timing_;
  bool short_steps_;
  bool after_probe_ = false;
  std::unique_ptr<HostSpeed> speed_;
  Clock::time_point last_probe_;
  std::vector<double> ms_;
  std::vector<size_t> pos_;  // position of each of ms_ within its round
  std::vector<double> round_rates_;  // simulated s per host s of each completed round
  size_t round_pos_ = 0;
  double host_ms_ = 0.0;
  double round_sim_s_ = 0.0;
  double round_host_ms_ = 0.0;
};

// What one workload run produced. `metrics` holds the end-to-end metrics in an
// untraced run and the per-layer metrics in a traced one.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool guards_ok = true;  // pinned digests and differential guards
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // printed before the result line

  // Counts one step and records whether its output check passed.
  void Step(bool ok, const std::string& what);
  // A guard that is not tied to one step (digest pin, traced-vs-plain differential).
  void Guard(bool ok, const std::string& what);
  // Fills sim_s_per_host_s, step_ms_p50 and step_ms_tail from `log`; the tail is the
  // `tail_percentile` of the log's Profile().
  void AddStepMetrics(const StepLog& log, double tail_percentile);
};

// Layer counters read from public accessors at span boundaries; a span keeps the
// difference between its close and open snapshots.
struct Counters {
  int64_t events = 0;
  int64_t hits = 0;
  int64_t faults = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;
  int64_t disk_reads = 0;
  int64_t hog_touches = 0;
  int64_t frames_sent = 0;
  int64_t frames_delivered = 0;
  int64_t frames_lost = 0;
  int64_t wan_queue_drops = 0;
  int64_t originals = 0;  // frames accepted by the reliable channel
  int64_t retransmissions = 0;
  int64_t frames_shed = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t packets = 0;
  int64_t interactions = 0;
  int64_t recorder_records = 0;

  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

struct Span {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  Counters delta;

  double ms() const { return end_ms - start_ms; }
};

// Spans (name, start, end, parent) around every call the benchmark makes into a layer,
// kept in memory and written out when the run ends.
class SpanLog {
 public:
  // Opens a span under the innermost open one; `now` is the counter snapshot.
  int Open(std::string name, const Counters& now);
  void Close(int id, const Counters& now);

  const std::vector<Span>& spans() const { return spans_; }
  // Host ms of every span called `name`, in order.
  std::vector<double> Ms(const std::string& name) const;
  // Sum of the counter deltas of every span called `name`.
  Counters Sum(const std::string& name) const;
  size_t Count(const std::string& name) const;

  // One JSON object per line.
  void Write(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Counters> open_at_;
  std::vector<int> stack_;
};

// Host time between consecutive dispatch-hook calls on the simulators the benchmark
// owns (exact nanosecond histogram), and the deepest pending queue seen.
class DispatchTimer {
 public:
  DispatchTimer();
  DispatchTimer(const DispatchTimer&) = delete;
  DispatchTimer& operator=(const DispatchTimer&) = delete;

  // Hooks `sim`; the timer must outlive the simulator's runs.
  void Attach(tcs::Simulator& sim);
  // Marks the start of a RunUntil, so the first event's time excludes the gap before it.
  void Arm() { last_ = Clock::now(); }

  double PercentileNs(double q) const;
  size_t pending_max() const { return pending_max_; }

 private:
  static constexpr size_t kBuckets = size_t{1} << 17;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> overflow_;
  uint64_t total_ = 0;
  size_t pending_max_ = 0;
  Clock::time_point last_;
};

// Hands the memory earlier steps freed back to the kernel (glibc's malloc_trim). Called
// before each timed set-up, so every construction pays for its page faults as the
// single construction of a fresh process does; otherwise whether glibc's defaults kept
// the previous episode's memory depends on which small allocations outlived it.
void ReleaseFreedMemory();

// Peak resident set of this process so far, MiB. Workloads read it when their first
// round ends: later rounds repeat the same shape of work, and reading it at the end
// would let allocator fragmentation across rounds, and so the run's length, move it.
double PeakRssMb();

}  // namespace perfbench

#endif  // TCS_PERFBENCH_HARNESS_H_
