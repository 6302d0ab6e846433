#include "src/core/parallel_sweep.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace tcs {

uint64_t SweepSeed(uint64_t base_seed, uint64_t config_index) {
  // splitmix64 finalizer over the (base, index) pair. The odd multiplier decorrelates
  // neighboring indices before the avalanche rounds.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (config_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

namespace {

// Set on every thread a pool starts, so a sweep started inside a configuration runs
// serially on the thread that started it.
thread_local bool on_pool_worker = false;

}  // namespace

ParallelSweep::ParallelSweep(int workers) : workers_(workers) {
  if (workers_ <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers_ = hw == 0 ? 1 : static_cast<int>(hw);
  }
}

void ParallelSweep::RunIndexed(int count, const std::function<void(int)>& body) const {
  if (count <= 0) {
    return;
  }
  int pool = workers_ < count ? workers_ : count;
  if (pool <= 1 || on_pool_worker) {
    // Serial reference path: same submission order, same seeds, no thread machinery.
    // A sweep nested in another's configuration takes it too, so the process never runs
    // more threads than the outer pool's workers.
    for (int i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  std::atomic<int> next{0};
  std::mutex error_mu;
  int first_error_index = count;
  std::exception_ptr first_error;
  auto worker = [&] {
    on_pool_worker = true;
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(pool));
  for (int t = 0; t < pool; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace tcs
