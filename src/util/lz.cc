#include "src/util/lz.h"

#include <algorithm>
#include <array>
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

template <typename Sink>
void Parse(const std::vector<uint8_t>& input, Sink& sink) {
  constexpr uint32_t kStampMax = std::numeric_limits<uint32_t>::max();
  const size_t n = input.size();
  assert(n < kStampMax);
  MatchTable& table = ThreadMatchTable();
  if (n + 1 > kStampMax - table.base) {
    // This call's stamps would wrap: start the stamps over from an empty table.
    table.slots.fill(0);
    table.base = 0;
  }
  const uint32_t base = table.base;
  table.base = static_cast<uint32_t>(base + n + 1);

  size_t i = 0;
  size_t literal_start = 0;
  while (n >= LzCodec::kMinMatch && i + LzCodec::kMinMatch <= n) {
    uint32_t& slot = table.slots[HashAt(&input[i])];
    uint32_t stamp = slot;
    slot = static_cast<uint32_t>(base + i + 1);
    size_t match_len = 0;
    size_t cand = 0;
    // A stamp above `base` is a position this call wrote, hence before i.
    if (stamp > base) {
      cand = stamp - base - 1;
      if (i - cand <= LzCodec::kWindow) {
        size_t limit = std::min(n - i, LzCodec::kMaxMatch);
        while (match_len < limit && input[cand + match_len] == input[i + match_len]) {
          ++match_len;
        }
      }
    }
    if (match_len >= LzCodec::kMinMatch) {
      sink.Literals(input.data() + literal_start, i - literal_start);
      sink.Match(match_len, i - cand);
      // Insert hashes for the matched region (sparsely, every other byte, for speed).
      for (size_t j = i + 1; j + LzCodec::kMinMatch <= n && j < i + match_len; j += 2) {
        table.slots[HashAt(&input[j])] = static_cast<uint32_t>(base + j + 1);
      }
      i += match_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  sink.Literals(input.data() + literal_start, n - literal_start);
}

}  // namespace

std::vector<uint8_t> LzCodec::Compress(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  StreamWriter writer{out};
  Parse(input, writer);
  return out;
}

size_t LzCodec::CompressedSize(const std::vector<uint8_t>& input) {
  SizeCounter counter;
  Parse(input, counter);
  return counter.size;
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
