// The NT / TSE scheduler model (§4.2.1 of the paper).
//
// 32 priority levels (0 lowest, 31 highest), preemptive, round-robin within a level.
// Implements the two interactivity mechanisms the paper analyzes:
//
//  * "Quantum stretching": foreground (GUI-class) threads receive the base quantum
//    multiplied by an administrator-set factor of 1, 2, or 3.
//  * "Priority boosting": a GUI thread woken to service a user input event is boosted to
//    priority 15 for two quanta, after which it decays back to its base priority.
//
// NT Workstation and TSE share this code and differ only in configuration (both use the
// 30 ms Pentium quantum; NT Server would use 180 ms).

#ifndef TCS_SRC_CPU_NT_SCHEDULER_H_
#define TCS_SRC_CPU_NT_SCHEDULER_H_

#include <array>
#include <deque>

#include "src/cpu/scheduler.h"

namespace tcs {

struct NtSchedulerConfig {
  Duration quantum = Duration::Millis(30);
  // Quantum stretching factor for GUI-class threads: 1, 2, or 3.
  int foreground_stretch = 1;
  // GUI input-event wake boost.
  bool gui_boost_enabled = true;
  int gui_boost_priority = 15;
  int gui_boost_quanta = 2;
};

// Default NT base priorities used by the OS profiles.
inline constexpr int kNtForegroundPriority = 9;   // foreground application threads
inline constexpr int kNtBackgroundPriority = 8;   // everything else in user sessions
inline constexpr int kNtSystemDaemonPriority = 13;  // Session Manager / Terminal Service

class NtScheduler final : public Scheduler {
 public:
  explicit NtScheduler(NtSchedulerConfig config = {});

  void OnReady(Thread& t, WakeReason reason) override;
  void OnPreempted(Thread& t) override;
  void OnQuantumExpired(Thread& t) override;
  void OnBlocked(Thread& t) override;
  Thread* PickNext() override;
  Duration QuantumFor(const Thread& t) const override;
  bool ShouldPreempt(const Thread& running, const Thread& woken) const override;
  size_t ReadyCount() const override { return ready_count_; }
  std::string name() const override { return "nt"; }

  const NtSchedulerConfig& config() const { return config_; }

 private:
  static constexpr int kLevels = 32;

  void PushBack(Thread& t);
  void PushFront(Thread& t);

  NtSchedulerConfig config_;
  std::array<std::deque<Thread*>, kLevels> queues_;
  size_t ready_count_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_CPU_NT_SCHEDULER_H_
