// Parallel fan-out for independent experiment configurations.
//
// The paper's methodology is a sweep — OS profile x protocol x load level — and every
// configuration is an isolated simulation: each experiment function builds its own
// Simulator and Rng from an explicit seed, shares no mutable state with its siblings,
// and is deterministic given (config, seed). That makes the sweep embarrassingly
// parallel: ParallelSweep::Map runs configurations across a worker pool and returns
// results in submission order, so N workers produce byte-identical output to the serial
// path. Seed per-config RNGs with SweepSeed(base, index), never with anything derived
// from which worker or wall-clock slot ran the config.

#ifndef TCS_SRC_CORE_PARALLEL_SWEEP_H_
#define TCS_SRC_CORE_PARALLEL_SWEEP_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tcs {

// Deterministic per-config RNG seed (splitmix64 over base_seed and config_index).
// Stable across platforms, worker counts, and runs; never returns 0.
uint64_t SweepSeed(uint64_t base_seed, uint64_t config_index);

class ParallelSweep {
 public:
  // workers <= 0 selects the hardware concurrency.
  explicit ParallelSweep(int workers = 0);

  int workers() const { return workers_; }

  // Runs body(i) for every i in [0, count) across the worker pool and blocks until all
  // configurations finish. Work is handed out by atomic counter, so stragglers don't
  // serialize the pool. If bodies throw, every remaining configuration still runs (one
  // failed config doesn't wedge or abandon the sweep) and the exception thrown by the
  // lowest config index is rethrown after the pool drains. Called from a body, on one of
  // a pool's workers, it runs every configuration inline on that worker instead, in
  // index order: nested sweeps share the outer pool's threads rather than add their own.
  void RunIndexed(int count, const std::function<void(int)>& body) const;

  // Maps fn over [0, count), returning results indexed by submission order regardless of
  // which worker ran which configuration.
  template <typename Fn>
  auto Map(int count, Fn&& fn) const -> std::vector<decltype(fn(0))> {
    std::vector<decltype(fn(0))> results(static_cast<size_t>(count < 0 ? 0 : count));
    RunIndexed(count, [&](int i) { results[static_cast<size_t>(i)] = fn(i); });
    return results;
  }

 private:
  int workers_;
};

}  // namespace tcs

#endif  // TCS_SRC_CORE_PARALLEL_SWEEP_H_
