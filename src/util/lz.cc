#include "src/util/lz.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <memory>

namespace tcs {

namespace {

constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;

uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Single-probe table of the most recent position per hash — greedy, fast, and good enough
// on the redundant payloads we generate. A call stamps position `pos` as `base + pos + 1`
// and then advances `base` by n + 1, so every slot an earlier call wrote (or a refill
// zeroed) is at or below the next call's `base` and reads as empty, exactly as if the
// table were cleared per call.
struct MatchTable {
  std::array<uint32_t, kHashSize> slots{};
  uint32_t base = 0;
};

// The calling thread's table, so no call races another. Allocated on the thread's first
// call: a static thread_local would be zeroed, and so made resident, in every thread of
// every program that links the codec, compressing or not.
MatchTable& ThreadMatchTable() {
  thread_local std::unique_ptr<MatchTable> table;
  if (table == nullptr) {
    table = std::make_unique<MatchTable>();
  }
  return *table;
}

// Appends the compressed stream to `out`.
struct StreamWriter {
  std::vector<uint8_t>& out;

  void Literals(const uint8_t* p, size_t len) {
    while (len > 0) {
      size_t run = std::min<size_t>(len, 0x80);
      out.push_back(static_cast<uint8_t>(run - 1));
      out.insert(out.end(), p, p + run);
      p += run;
      len -= run;
    }
  }
  void Match(size_t len, size_t offset) {
    out.push_back(static_cast<uint8_t>(0x80 | (len - LzCodec::kMinMatch)));
    out.push_back(static_cast<uint8_t>(offset & 0xFF));
    out.push_back(static_cast<uint8_t>((offset >> 8) & 0xFF));
  }
};

// Counts the bytes StreamWriter would append.
struct SizeCounter {
  size_t size = 0;

  void Literals(const uint8_t* /*p*/, size_t len) { size += len + (len + 0x7F) / 0x80; }
  void Match(size_t /*len*/, size_t /*offset*/) { size += 3; }
};

// This call's view of the thread's table: its slots and the base its stamps start above.
struct CallTable {
  uint32_t* slots;
  uint32_t base;
};

// Reserves the stamps of one call over n bytes.
CallTable BeginCall(size_t n) {
  constexpr uint32_t kStampMax = std::numeric_limits<uint32_t>::max();
  assert(n < kStampMax);
  MatchTable& table = ThreadMatchTable();
  if (n + 1 > kStampMax - table.base) {
    // This call's stamps would wrap: start the stamps over from an empty table.
    table.slots.fill(0);
    table.base = 0;
  }
  const uint32_t base = table.base;
  table.base = static_cast<uint32_t>(base + n + 1);
  return {table.slots.data(), base};
}

// Writes table slots in place.
struct DirectWrites {
  void Write(uint32_t& slot, uint32_t value) { slot = value; }
};

// Writes table slots and logs each write, so Undo can restore the table. It logs the
// tail of a prefix's parse: the tail starts at or after position prefix - (kMaxMatch +
// kMinMatch) + 1 and writes each position up to prefix - kMinMatch at most once, so it
// makes at most kMaxMatch writes.
class LoggedWrites {
 public:
  void Write(uint32_t& slot, uint32_t value) {
    assert(count_ < log_.size());
    log_[count_++] = {&slot, slot};
    slot = value;
  }
  // Restores every logged slot, latest write first, so a slot written twice gets back
  // the value it had before the first.
  void Undo() {
    while (count_ > 0) {
      --count_;
      *log_[count_].slot = log_[count_].old;
    }
  }

 private:
  struct Entry {
    uint32_t* slot;
    uint32_t old;
  };
  std::array<Entry, LzCodec::kMaxMatch> log_;
  size_t count_ = 0;
};

// How many bytes a[0, limit) and b[0, limit) have in common from the start. Compares a
// word at a time while a whole word lies below limit, then byte by byte, so it reads
// nothing at or past a + limit or b + limit. Forced inline: GCC kept it out of line,
// where the call per candidate made Compress of a 4 KiB page about 6% slower than a byte
// loop written in place.
[[gnu::always_inline]] inline size_t MatchLength(const uint8_t* a, const uint8_t* b,
                                                 size_t limit) {
  size_t len = 0;
  for (; len + sizeof(uint64_t) <= limit; len += sizeof(uint64_t)) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + len, sizeof(x));
    std::memcpy(&y, b + len, sizeof(y));
    if (uint64_t diff = x ^ y; diff != 0) {
      // The first differing byte is the word's lowest-addressed one with a set bit.
      int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                            : std::countl_zero(diff);
      return len + static_cast<size_t>(bits) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// One past the last parse position i with i + span <= n.
size_t PositionsBelow(size_t n, size_t span) { return n >= span ? n - span + 1 : 0; }

// Where a parse stands: its next position and the start of its pending literal run.
struct Cursor {
  size_t i = 0;
  size_t literal_start = 0;
};

// Advances the greedy parse of in[0, n) from `at` while it stands below `stop`, giving
// its literal runs and matches to `sink` and its table writes to `writes`.
template <typename Sink, typename Writes>
void Advance(const uint8_t* in, size_t n, size_t stop, CallTable table, Cursor& at,
             Sink& sink, Writes& writes) {
  size_t i = at.i;
  size_t literal_start = at.literal_start;
  while (i < stop) {
    uint32_t& slot = table.slots[HashAt(in + i)];
    uint32_t stamp = slot;
    writes.Write(slot, static_cast<uint32_t>(table.base + i + 1));
    size_t match_len = 0;
    size_t cand = 0;
    // A stamp above `base` is a position this call wrote, hence before i.
    if (stamp > table.base) {
      cand = stamp - table.base - 1;
      if (i - cand <= LzCodec::kWindow) {
        match_len = MatchLength(in + cand, in + i, std::min(n - i, LzCodec::kMaxMatch));
      }
    }
    if (match_len >= LzCodec::kMinMatch) {
      sink.Literals(in + literal_start, i - literal_start);
      sink.Match(match_len, i - cand);
      // Insert hashes for the matched region (sparsely, every other byte, for speed).
      for (size_t j = i + 1; j + LzCodec::kMinMatch <= n && j < i + match_len; j += 2) {
        writes.Write(table.slots[HashAt(in + j)], static_cast<uint32_t>(table.base + j + 1));
      }
      i += match_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  at = {i, literal_start};
}

}  // namespace

std::vector<uint8_t> LzCodec::Compress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  StreamWriter writer{out};
  DirectWrites writes;
  const size_t n = input.size();
  Cursor at;
  Advance(input.data(), n, PositionsBelow(n, kMinMatch), BeginCall(n), at, writer, writes);
  writer.Literals(input.data() + at.literal_start, n - at.literal_start);
  return out;
}

LzCodec::Sizes LzCodec::CompressedSizes(const std::vector<uint8_t>& input, size_t prefix) {
  const size_t n = input.size();
  assert(prefix <= n);
  const uint8_t* in = input.data();
  const CallTable table = BeginCall(n);
  DirectWrites direct;

  // Standing at i with i + kMaxMatch + kMinMatch <= prefix, both parses hash, compare and
  // insert only below i + kMaxMatch + kMinMatch - 1, so they are one parse up to there.
  Cursor shared;
  SizeCounter shared_size;
  Advance(in, n, PositionsBelow(prefix, kMaxMatch + kMinMatch), table, shared, shared_size,
          direct);

  // The prefix's tail, with its table writes undone once it ends.
  Cursor at = shared;
  SizeCounter prefix_size = shared_size;
  LoggedWrites logged;
  Advance(in, prefix, PositionsBelow(prefix, kMinMatch), table, at, prefix_size, logged);
  prefix_size.Literals(in + at.literal_start, prefix - at.literal_start);
  logged.Undo();

  // The whole input's tail, from the table and cursor the shared part left.
  at = shared;
  SizeCounter whole_size = shared_size;
  Advance(in, n, PositionsBelow(n, kMinMatch), table, at, whole_size, direct);
  whole_size.Literals(in + at.literal_start, n - at.literal_start);
  return {prefix_size.size, whole_size.size};
}

std::optional<std::vector<uint8_t>> LzCodec::Decompress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    uint8_t c = input[i++];
    if (c < 0x80) {
      size_t run = static_cast<size_t>(c) + 1;
      if (i + run > n) {
        return std::nullopt;
      }
      out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(i),
                 input.begin() + static_cast<ptrdiff_t>(i + run));
      i += run;
    } else {
      if (i + 2 > n) {
        return std::nullopt;
      }
      size_t len = static_cast<size_t>(c & 0x7F) + kMinMatch;
      size_t offset = static_cast<size_t>(input[i]) | (static_cast<size_t>(input[i + 1]) << 8);
      i += 2;
      if (offset == 0 || offset > out.size()) {
        return std::nullopt;
      }
      // Byte-by-byte copy: overlapping matches (offset < len) replicate, as in LZ77.
      size_t src = out.size() - offset;
      for (size_t j = 0; j < len; ++j) {
        out.push_back(out[src + j]);
      }
    }
  }
  return out;
}

}  // namespace tcs
