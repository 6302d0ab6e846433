// Client-side bitmap cache (the TSE mechanism behind Figures 4-7).
//
// Per Microsoft's product literature the TSE client reserves 1.5 MB for an LRU bitmap
// cache holding icons, button images, glyphs, and animation frames. A display hit costs a
// tiny "swap bitmap" message instead of a raster transfer.
//
// Two eviction policies:
//   kLru       — what TSE ships. Defeated by looping animations exactly the way sequential
//                scans defeat LRU disk caches (§6.1.3 "Cache Pathology").
//   kLoopAware — the paper's suggested improvement: when re-fetch thrashing is detected,
//                evict the most recently *inserted* entry instead, preserving a stable
//                prefix of the loop (the classic fix for sequential flooding).

#ifndef TCS_SRC_PROTO_BITMAP_CACHE_H_
#define TCS_SRC_PROTO_BITMAP_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "src/sim/units.h"

namespace tcs {

enum class CachePolicy { kLru, kLoopAware };

struct BitmapCacheConfig {
  Bytes capacity = Bytes::Of(3 * 512 * 1024);  // the documented 1.5 MB default
  CachePolicy policy = CachePolicy::kLru;
};

class BitmapCache {
 public:
  explicit BitmapCache(BitmapCacheConfig config = {});

  // True (and recency updated) if `hash` is cached.
  bool Lookup(uint64_t hash);

  // Inserts `hash` of `size` bytes, evicting until it fits. Oversized entries (> capacity)
  // are not cached at all.
  void Insert(uint64_t hash, Bytes size);

  // Drops every cached entry (a session reconnect: the client's cache is stale and the
  // server must assume nothing survives). Ghosts and cumulative counters are kept —
  // re-fetches after a reconnect are real re-fetches.
  void InvalidateAll();

  Bytes capacity() const { return config_.capacity; }
  Bytes used() const { return used_; }
  size_t entries() const { return index_.size(); }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t lookups() const { return hits_ + misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t refetches() const { return refetches_; }
  // Cumulative hit ratio since construction — the Perfmon counter Figure 6 plots.
  double CumulativeHitRatio() const;
  bool InLoopMode() const { return loop_mode_; }

 private:
  struct Entry {
    uint64_t hash;
    Bytes size;
  };

  void EvictOne();
  void NoteMiss(uint64_t hash);

  BitmapCacheConfig config_;
  // Recency order: front = least recently used, back = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  // Insertion order (independent of recency): back = most recently inserted.
  std::list<uint64_t> insertion_order_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> insertion_index_;
  // Ghost set of hashes that were cached once and evicted — for re-fetch detection.
  std::unordered_set<uint64_t> ghosts_;

  Bytes used_ = Bytes::Zero();
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t refetches_ = 0;
  uint32_t recent_miss_window_ = 0;  // bitmask of last 32 misses: 1 = was a re-fetch
  bool loop_mode_ = false;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_BITMAP_CACHE_H_
