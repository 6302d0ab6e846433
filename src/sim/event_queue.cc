#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace tcs {

namespace {
constexpr int kArity = 4;
}  // namespace

EventId EventQueue::Schedule(TimePoint when, Callback cb) {
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = slot_count_++;
    if ((slot & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
  }
  uint64_t seq = next_seq_++;
  Slot& s = SlotAt(slot);
  s.seq = seq;
  s.cb = std::move(cb);
  heap_.resize(heap_.size() + 1);
  SiftUp(heap_.size() - 1, HeapEntry{when, seq, slot});
  ++live_;
  return EventId((static_cast<uint64_t>(slot) + 1) << 32 | s.generation);
}

uint32_t EventQueue::DecodeSlot(EventId id) const {
  uint64_t slot_plus_1 = id.bits_ >> 32;
  if (slot_plus_1 == 0 || slot_plus_1 > slot_count_) {
    return kNoSlot;
  }
  uint32_t slot = static_cast<uint32_t>(slot_plus_1 - 1);
  // A vacant slot has already had its generation bumped past every id it handed out, so
  // one comparison covers "fired", "cancelled", and "recycled to a new event".
  if (SlotAt(slot).generation != static_cast<uint32_t>(id.bits_)) {
    return kNoSlot;
  }
  return slot;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = SlotAt(slot);
  ++s.generation;
  s.seq = 0;              // any heap entry still naming this slot is now a tombstone
  s.cb = Callback();      // drop captured state now, not at slot reuse
  free_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = DecodeSlot(id);
  if (slot == kNoSlot) {
    return false;
  }
  // Lazy deletion: the heap entry stays until it reaches the root, where the seq
  // mismatch against the (released or recycled) slot identifies it as a tombstone.
  ReleaseSlot(slot);
  --live_;
  return true;
}

void EventQueue::SkipTombstones() const {
  while (!heap_.empty() && SlotAt(heap_[0].slot).seq != heap_[0].seq) {
    PopRoot();
  }
}

TimePoint EventQueue::NextTime() const {
  SkipTombstones();
  assert(!heap_.empty());
  return heap_[0].when;
}

EventQueue::Callback EventQueue::Pop(TimePoint* when) {
  SkipTombstones();
  assert(!heap_.empty());
  uint32_t slot = heap_[0].slot;
  *when = heap_[0].when;
  Callback cb = std::move(SlotAt(slot).cb);
  PopRoot();
  ReleaseSlot(slot);
  --live_;
  return cb;
}

void EventQueue::SiftUp(size_t pos, HeapEntry e) const {
  while (pos > 0) {
    size_t parent = (pos - 1) / kArity;
    if (!Earlier(e, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void EventQueue::SiftDown(size_t pos, HeapEntry e) const {
  const size_t n = heap_.size();
  for (;;) {
    size_t first = kArity * pos + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    size_t last = first + kArity < n ? first + kArity : n;
    for (size_t child = first + 1; child < last; ++child) {
      if (Earlier(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Earlier(heap_[best], e)) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = e;
}

void EventQueue::PopRoot() const {
  HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, tail);
  }
}

}  // namespace tcs
