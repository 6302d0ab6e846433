#include "perfbench/harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

uint64_t InputSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string Digest(const std::string& text) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001B3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) {
    return hi;
  }
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

Tail TailOf(std::vector<double> v, double percentile) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) {
    return t;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(percentile / 100.0 * static_cast<double>(v.size())));
  size_t idx = std::max<size_t>(rank, 1) - 1;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  return t;
}

namespace {

uint64_t Lcg(uint64_t x) { return x * 6364136223846793005ull + 1442695040888963407ull; }

}  // namespace

HostSpeed::HostSpeed() : heap_(size_t{1} << 14) {
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint64_t& h : heap_) {
    x = Lcg(x);
    h = x >> 40;
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  key_ = x;
}

void HostSpeed::Probe() {
  Clock::time_point t0 = Clock::now();
  // A timestamp heap: pop the earliest, push it back later.
  for (uint64_t i = 0; i < 20000; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.back() += (i * 2654435761u) & 0xFFFF;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  // An ordered map built node by node and freed.
  {
    std::map<uint64_t, uint64_t> m;
    uint64_t k = key_;
    for (int i = 0; i < 10000; ++i) {
      k = Lcg(k);
      m[k >> 48] += k;
    }
    sink_ += m.size();
  }
  // A miniature discrete-event loop: callbacks in a time-ordered queue, each bumping a
  // counter in a hash map and scheduling one or two more until the budget is spent.
  {
    struct Event {
      uint64_t when;
      uint64_t seq;
      std::function<void()> fn;
      bool operator>(const Event& o) const {
        return when != o.when ? when > o.when : seq > o.seq;
      }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_map<uint64_t, uint64_t> counts;
    uint64_t now = 0;
    uint64_t seq = 0;
    uint64_t budget = 12000;
    std::function<void(uint64_t)> schedule = [&](uint64_t id) {
      key_ = Lcg(key_);
      queue.push(Event{now + (key_ >> 54), seq++, [&, id] {
                         ++counts[id % 4096];
                         if (budget > 0) {
                           --budget;
                           schedule(id * 31 + 7);
                         }
                         if (budget > 0 && ((key_ >> 33) & 1) != 0) {
                           --budget;
                           schedule(id + 1);
                         }
                       }});
    };
    for (uint64_t i = 0; i < 256; ++i) {
      schedule(i);
    }
    while (!queue.empty()) {
      Event e = queue.top();
      queue.pop();
      now = e.when;
      e.fn();
    }
    sink_ += counts.size();
  }
  probe_ms_.push_back(MsSince(t0));
}

double HostSpeed::Slowdown() const {
  if (probe_ms_.empty()) {
    return 1.0;
  }
  size_t n = std::min(kWindow, probe_ms_.size());
  return Median(std::vector<double>(probe_ms_.end() - static_cast<std::ptrdiff_t>(n),
                                    probe_ms_.end())) /
         kReferenceMs;
}

void StepLog::StartTiming() {
  timing_ = true;
  speed_ = std::make_unique<HostSpeed>();
  for (size_t i = 0; i < HostSpeed::kWindow; ++i) {
    speed_->Probe();
  }
  last_probe_ = Clock::now();
  after_probe_ = true;
}

void StepLog::Add(double step_ms, double step_sim_s) {
  if (!timing_) {
    return;
  }
  if (!(short_steps_ && after_probe_)) {
    step_ms = Normalize(step_ms);
    ms_.push_back(step_ms);
    pos_.push_back(round_pos_);
    host_ms_ += step_ms;
    round_sim_s_ += step_sim_s;
    round_host_ms_ += step_ms;
  }
  ++round_pos_;
  after_probe_ = false;
  if (speed_ != nullptr && MsSince(last_probe_) >= kProbePeriodMs) {
    speed_->Probe();
    last_probe_ = Clock::now();
    after_probe_ = true;
  }
}

void StepLog::EndRound() {
  if (round_host_ms_ > 0.0) {
    round_rates_.push_back(round_sim_s_ / (round_host_ms_ / 1e3));
  }
  round_pos_ = 0;
  round_sim_s_ = 0.0;
  round_host_ms_ = 0.0;
}

std::vector<double> StepLog::Profile() const {
  std::vector<std::vector<double>> at;
  for (size_t i = 0; i < ms_.size(); ++i) {
    if (pos_[i] >= at.size()) {
      at.resize(pos_[i] + 1);
    }
    at[pos_[i]].push_back(ms_[i]);
  }
  std::vector<double> profile;
  for (const std::vector<double>& steps : at) {
    if (!steps.empty()) {
      profile.push_back(Median(steps));
    }
  }
  return profile;
}

void Outcome::Step(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "perfbench: step %lld failed its output check: %s\n",
                   static_cast<long long>(attempted), what.c_str());
    }
  }
}

void Outcome::Guard(bool ok, const std::string& what) {
  if (!ok) {
    guards_ok = false;
    std::fprintf(stderr, "perfbench: guard failed: %s\n", what.c_str());
  }
}

void Outcome::AddStepMetrics(const StepLog& log, double tail_percentile) {
  std::vector<double> profile = log.Profile();
  Tail tail = TailOf(profile, tail_percentile);
  metrics["sim_s_per_host_s"] = log.SimPerHostS();
  metrics["step_ms_p50"] = Median(log.ms());
  metrics["step_ms_tail"] = tail.value;
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "step_ms_tail is p%g of the medians of %zu positions a round (%zu beyond it) "
                "over %zu rounds; step_ms_p50 is the median of %zu steps; sim_s_per_host_s is "
                "the median of the rounds' rates",
                tail_percentile, tail.samples, tail.beyond, log.rounds(), log.ms().size());
  notes.push_back(buf);
  if (const HostSpeed* speed = log.speed()) {
    std::snprintf(buf, sizeof buf,
                  "host speed: the reference load ran %zu times, median %.4g ms (%.4g on the "
                  "unloaded host)",
                  speed->probes(), speed->MedianProbeMs(), HostSpeed::kReferenceMs);
    notes.push_back(buf);
  }
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.events -= o.events;
  d.hits -= o.hits;
  d.faults -= o.faults;
  d.evictions -= o.evictions;
  d.dirty_writebacks -= o.dirty_writebacks;
  d.disk_reads -= o.disk_reads;
  d.hog_touches -= o.hog_touches;
  d.frames_sent -= o.frames_sent;
  d.frames_delivered -= o.frames_delivered;
  d.frames_lost -= o.frames_lost;
  d.wan_queue_drops -= o.wan_queue_drops;
  d.originals -= o.originals;
  d.retransmissions -= o.retransmissions;
  d.frames_shed -= o.frames_shed;
  d.messages -= o.messages;
  d.bytes -= o.bytes;
  d.packets -= o.packets;
  d.interactions -= o.interactions;
  d.recorder_records -= o.recorder_records;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  events += o.events;
  hits += o.hits;
  faults += o.faults;
  evictions += o.evictions;
  dirty_writebacks += o.dirty_writebacks;
  disk_reads += o.disk_reads;
  hog_touches += o.hog_touches;
  frames_sent += o.frames_sent;
  frames_delivered += o.frames_delivered;
  frames_lost += o.frames_lost;
  wan_queue_drops += o.wan_queue_drops;
  originals += o.originals;
  retransmissions += o.retransmissions;
  frames_shed += o.frames_shed;
  messages += o.messages;
  bytes += o.bytes;
  packets += o.packets;
  interactions += o.interactions;
  recorder_records += o.recorder_records;
  return *this;
}

int SpanLog::Open(std::string name, const Counters& now) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ms = MsSince(t0_);
  spans_.push_back(std::move(s));
  open_at_.push_back(now);
  int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::Close(int id, const Counters& now) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ms = MsSince(t0_);
  s.delta = now - open_at_[static_cast<size_t>(id)];
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

std::vector<double> SpanLog::Ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(s.ms());
    }
  }
  return out;
}

Counters SpanLog::Sum(const std::string& name) const {
  Counters sum;
  for (const Span& s : spans_) {
    if (s.name == name) {
      sum += s.delta;
    }
  }
  return sum;
}

size_t SpanLog::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

void SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const Counters& d = s.delta;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"start_ms\":%.4f,\"end_ms\":%.4f,"
        "\"events\":%lld,\"hits\":%lld,\"faults\":%lld,\"hog_touches\":%lld,"
        "\"frames_sent\":%lld,\"retransmissions\":%lld,\"messages\":%lld,"
        "\"interactions\":%lld}\n",
        i, s.name.c_str(), s.parent, s.start_ms, s.end_ms,
        static_cast<long long>(d.events), static_cast<long long>(d.hits),
        static_cast<long long>(d.faults), static_cast<long long>(d.hog_touches),
        static_cast<long long>(d.frames_sent), static_cast<long long>(d.retransmissions),
        static_cast<long long>(d.messages), static_cast<long long>(d.interactions));
    out << buf;
  }
}

DispatchTimer::DispatchTimer() : counts_(kBuckets, 0), last_(Clock::now()) {}

void DispatchTimer::Attach(tcs::Simulator& sim) {
  sim.set_dispatch_hook([this](tcs::TimePoint, size_t pending_after) {
    Clock::time_point now = Clock::now();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count());
    last_ = now;
    if (ns < kBuckets) {
      ++counts_[ns];
    } else {
      overflow_.push_back(ns);
    }
    ++total_;
    pending_max_ = std::max(pending_max_, pending_after);
  });
}

double DispatchTimer::PercentileNs(double q) const {
  if (total_ == 0) {
    return 0.0;
  }
  uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_))));
  uint64_t seen = 0;
  for (size_t ns = 0; ns < kBuckets; ++ns) {
    seen += counts_[ns];
    if (seen >= rank) {
      return static_cast<double>(ns);
    }
  }
  std::vector<uint64_t> over = overflow_;
  std::sort(over.begin(), over.end());
  return static_cast<double>(over[static_cast<size_t>(rank - seen - 1)]);
}

void ReleaseFreedMemory() { malloc_trim(0); }

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so it would
  // report the launching process's peak (run.py's Python) when that is the larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
