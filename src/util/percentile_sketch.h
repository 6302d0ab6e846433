// Incremental exact-percentile sketch: the model's one percentile type.
//
// Percentile consumers in the model interleave appends with queries: the SLO watchdog
// polls each user's latency recorder for its p99 every check period while the run keeps
// recording. The classic store-then-sort approach pays a full O(n log n) re-sort at every
// query once a single sample has arrived since the last one.
//
// This sketch keeps every sample in one vector whose prefix is sorted. Appends are O(1)
// pushes onto the unsorted tail. A query compacts: sort the (small) tail, then
// std::inplace_merge it into the prefix — O(k log k + n) for k new samples instead of
// O(n log n) over everything. Results are EXACT (every sample is retained; nothing is
// approximated) — the differential tests in util_percentile_sketch_test compare it
// against the naive sort-and-scan on random streams.

#ifndef TCS_SRC_UTIL_PERCENTILE_SKETCH_H_
#define TCS_SRC_UTIL_PERCENTILE_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcs {

template <typename T>
class PercentileSketch {
 public:
  void Add(T x) { samples_.push_back(x); }

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Exact nearest-rank percentile: the sample at rank ceil(q * n), clamped to [1, n].
  // The result is always an actually observed value. With no samples every query below
  // returns the value-initialized sentinel T{} (0 for the numeric instantiations) —
  // a defined answer rather than an out-of-bounds read.
  T NearestRank(double q) const {
    if (empty()) {
      return T{};
    }
    Compact();
    auto n = static_cast<int64_t>(samples_.size());
    auto rank = static_cast<int64_t>(q * static_cast<double>(n) + 0.999999999);
    rank = std::clamp<int64_t>(rank, 1, n);
    return samples_[static_cast<size_t>(rank - 1)];
  }

  T Min() const {
    if (empty()) {
      return T{};
    }
    Compact();
    return samples_.front();
  }
  T Max() const {
    if (empty()) {
      return T{};
    }
    Compact();
    return samples_.back();
  }

 private:
  void Compact() const {
    if (sorted_ == samples_.size()) {
      return;
    }
    auto tail = samples_.begin() + static_cast<ptrdiff_t>(sorted_);
    std::sort(tail, samples_.end());
    std::inplace_merge(samples_.begin(), tail, samples_.end());
    sorted_ = samples_.size();
  }

  mutable std::vector<T> samples_;  // [0, sorted_) ascending; the tail is unsorted
  mutable size_t sorted_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_PERCENTILE_SKETCH_H_
