#include "src/proto/bitmap_cache.h"

#include <bit>
#include <cassert>

namespace tcs {

namespace {

// kLoopAware: switch to loop eviction once this many of the last 32 misses were
// re-fetches (entries previously evicted).
constexpr int kRefetchThreshold = 8;

}  // namespace

BitmapCache::BitmapCache(BitmapCacheConfig config) : config_(config) {
  assert(config_.capacity.count() > 0);
}

bool BitmapCache::Lookup(uint64_t hash) {
  auto it = index_.find(hash);
  if (it == index_.end()) {
    ++misses_;
    NoteMiss(hash);
    return false;
  }
  ++hits_;
  lru_.splice(lru_.end(), lru_, it->second);  // refresh recency
  return true;
}

void BitmapCache::NoteMiss(uint64_t hash) {
  bool refetch = ghosts_.contains(hash);
  if (refetch) {
    ++refetches_;
  }
  recent_miss_window_ = (recent_miss_window_ << 1) | (refetch ? 1u : 0u);
  if (config_.policy == CachePolicy::kLoopAware) {
    loop_mode_ = std::popcount(recent_miss_window_) >= kRefetchThreshold;
  }
}

void BitmapCache::EvictOne() {
  assert(!lru_.empty());
  uint64_t victim_hash;
  if (loop_mode_) {
    // Evict the most recently inserted entry: a cyclic access pattern then keeps a stable
    // prefix resident instead of missing on every frame.
    victim_hash = insertion_order_.back();
  } else {
    victim_hash = lru_.front().hash;
  }
  auto it = index_.find(victim_hash);
  assert(it != index_.end());
  used_ -= it->second->size;
  lru_.erase(it->second);
  index_.erase(it);
  auto ins_it = insertion_index_.find(victim_hash);
  assert(ins_it != insertion_index_.end());
  insertion_order_.erase(ins_it->second);
  insertion_index_.erase(ins_it);
  ghosts_.insert(victim_hash);
  ++evictions_;
}

void BitmapCache::Insert(uint64_t hash, Bytes size) {
  if (index_.contains(hash)) {
    return;  // already cached
  }
  if (size > config_.capacity) {
    return;  // uncacheable
  }
  while (used_ + size > config_.capacity) {
    EvictOne();
  }
  lru_.push_back(Entry{hash, size});
  index_[hash] = std::prev(lru_.end());
  insertion_order_.push_back(hash);
  insertion_index_[hash] = std::prev(insertion_order_.end());
  used_ += size;
  ghosts_.erase(hash);
}

void BitmapCache::InvalidateAll() {
  for (const Entry& e : lru_) {
    ghosts_.insert(e.hash);
  }
  lru_.clear();
  index_.clear();
  insertion_order_.clear();
  insertion_index_.clear();
  used_ = Bytes::Zero();
  loop_mode_ = false;
  recent_miss_window_ = 0;
}

double BitmapCache::CumulativeHitRatio() const {
  int64_t n = lookups();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(hits_) / static_cast<double>(n);
}

}  // namespace tcs
