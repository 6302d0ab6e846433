#include "src/util/lz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/random.h"

namespace tcs {
namespace {

std::vector<uint8_t> FromString(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// The compressor with its plainest match table: size_t positions, cleared on every call.
// The differential test below holds LzCodec to this oracle byte for byte.
std::vector<uint8_t> ReferenceCompress(const std::vector<uint8_t>& input) {
  constexpr size_t kHashBits = 15;
  auto hash_at = [](const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  auto emit_literals = [&input](size_t start, size_t end, std::vector<uint8_t>& out) {
    while (start < end) {
      size_t run = std::min<size_t>(end - start, 0x80);
      out.push_back(static_cast<uint8_t>(run - 1));
      out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(start),
                 input.begin() + static_cast<ptrdiff_t>(start + run));
      start += run;
    }
  };
  std::vector<uint8_t> out;
  const size_t n = input.size();
  std::vector<size_t> head(size_t{1} << kHashBits, SIZE_MAX);
  size_t i = 0;
  size_t literal_start = 0;
  while (n >= LzCodec::kMinMatch && i + LzCodec::kMinMatch <= n) {
    uint32_t h = hash_at(&input[i]);
    size_t cand = head[h];
    head[h] = i;
    size_t match_len = 0;
    if (cand != SIZE_MAX && cand < i && i - cand <= LzCodec::kWindow) {
      size_t limit = std::min(n - i, LzCodec::kMaxMatch);
      while (match_len < limit && input[cand + match_len] == input[i + match_len]) {
        ++match_len;
      }
    }
    if (match_len >= LzCodec::kMinMatch) {
      emit_literals(literal_start, i, out);
      size_t offset = i - cand;
      out.push_back(static_cast<uint8_t>(0x80 | (match_len - LzCodec::kMinMatch)));
      out.push_back(static_cast<uint8_t>(offset & 0xFF));
      out.push_back(static_cast<uint8_t>((offset >> 8) & 0xFF));
      for (size_t j = i + 1; j + LzCodec::kMinMatch <= n && j < i + match_len; j += 2) {
        head[hash_at(&input[j])] = j;
      }
      i += match_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  emit_literals(literal_start, n, out);
  return out;
}

TEST(LzCodecTest, EmptyInput) {
  std::vector<uint8_t> empty;
  auto compressed = LzCodec::Compress(empty);
  EXPECT_TRUE(compressed.empty());
  auto restored = LzCodec::Decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
}

TEST(LzCodecTest, RoundTripShortLiteral) {
  auto input = FromString("abc");
  auto restored = LzCodec::Decompress(LzCodec::Compress(input));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
}

TEST(LzCodecTest, RoundTripRepetitive) {
  auto input = FromString(std::string(10000, 'x'));
  auto compressed = LzCodec::Compress(input);
  auto restored = LzCodec::Decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
  // Highly repetitive data must compress hard.
  EXPECT_LT(compressed.size(), input.size() / 20);
}

TEST(LzCodecTest, RoundTripPatterned) {
  std::string pattern;
  for (int i = 0; i < 500; ++i) {
    pattern += "the quick brown fox ";
  }
  auto input = FromString(pattern);
  auto compressed = LzCodec::Compress(input);
  auto restored = LzCodec::Decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
  EXPECT_LT(compressed.size(), input.size() / 4);
}

TEST(LzCodecTest, IncompressibleDataExpandsOnlySlightly) {
  Rng rng(1234);
  std::vector<uint8_t> input(65536);
  rng.FillBytes(input.data(), input.size(), 0.0);
  auto compressed = LzCodec::Compress(input);
  auto restored = LzCodec::Decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
  // Worst-case bound: one control byte per 128 literals, plus slack.
  EXPECT_LE(compressed.size(), input.size() + input.size() / 128 + 2);
}

TEST(LzCodecTest, OverlappingMatchReplicates) {
  // "ababab..." forces matches whose offset is smaller than their length.
  std::string s;
  for (int i = 0; i < 1000; ++i) {
    s += "ab";
  }
  auto input = FromString(s);
  auto restored = LzCodec::Decompress(LzCodec::Compress(input));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
}

TEST(LzCodecTest, DecompressRejectsTruncatedLiteralRun) {
  // Control byte claims 16 literals; only 3 present.
  std::vector<uint8_t> bogus = {0x0F, 'a', 'b', 'c'};
  EXPECT_FALSE(LzCodec::Decompress(bogus).has_value());
}

TEST(LzCodecTest, DecompressRejectsTruncatedMatchHeader) {
  std::vector<uint8_t> bogus = {0x80, 0x01};  // missing second offset byte
  EXPECT_FALSE(LzCodec::Decompress(bogus).has_value());
}

TEST(LzCodecTest, DecompressRejectsBadOffset) {
  // Literal 'a' then match with offset 5 (only 1 byte of history) and offset 0.
  std::vector<uint8_t> bad_offset = {0x00, 'a', 0x80, 0x05, 0x00};
  EXPECT_FALSE(LzCodec::Decompress(bad_offset).has_value());
  std::vector<uint8_t> zero_offset = {0x00, 'a', 0x80, 0x00, 0x00};
  EXPECT_FALSE(LzCodec::Decompress(zero_offset).has_value());
}

// Property sweep: round-trip holds across sizes and entropy levels.
class LzRoundTripTest
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {};

TEST_P(LzRoundTripTest, RoundTripIdentity) {
  auto [size, redundancy, seed] = GetParam();
  Rng rng(seed);
  std::vector<uint8_t> input(size);
  rng.FillBytes(input.data(), input.size(), redundancy);
  auto compressed = LzCodec::Compress(input);
  auto restored = LzCodec::Decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, input);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LzRoundTripTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 127, 128, 129, 4096, 70000),
                       ::testing::Values(0.0, 0.5, 0.9, 0.99),
                       ::testing::Values<uint64_t>(1, 99)));

std::vector<uint8_t> RandomBytes(Rng& rng, size_t size, double redundancy) {
  std::vector<uint8_t> bytes(size);
  rng.FillBytes(bytes.data(), bytes.size(), redundancy);
  return bytes;
}

// One input of a differential call sequence: a size class (empty to three bytes, a short
// message, an LBX dictionary plus one message, a page, past the 64 KiB window) filled at
// a redundancy between 0 and 0.99; or, derived from the previous input, that input again,
// a prefix of it (long then short), or its last 2,048 bytes plus a message (the LBX
// dictionary rolling forward).
std::vector<uint8_t> NextInput(Rng& rng, const std::vector<uint8_t>& previous) {
  static constexpr std::array<double, 7> kRedundancy = {0.0, 0.2, 0.5, 0.7, 0.9, 0.95, 0.99};
  double redundancy = kRedundancy[rng.NextBelow(kRedundancy.size())];
  uint64_t shape = previous.empty() ? 9 : rng.NextBelow(10);
  if (shape == 0) {
    return previous;
  }
  if (shape == 1) {
    size_t prefix = static_cast<size_t>(rng.NextBelow(previous.size()));
    return std::vector<uint8_t>(previous.begin(),
                                previous.begin() + static_cast<ptrdiff_t>(prefix));
  }
  if (shape == 2) {
    size_t keep = std::min<size_t>(previous.size(), 2048);
    std::vector<uint8_t> rolled(previous.end() - static_cast<ptrdiff_t>(keep), previous.end());
    std::vector<uint8_t> message =
        RandomBytes(rng, static_cast<size_t>(rng.NextInt(4, 300)), redundancy);
    rolled.insert(rolled.end(), message.begin(), message.end());
    return rolled;
  }
  // Weighted toward the LBX shapes: short messages and dictionary-plus-message inputs.
  uint64_t pick = rng.NextBelow(20);
  int64_t size = pick < 4    ? rng.NextInt(0, 3)
                 : pick < 10 ? rng.NextInt(4, 300)
                 : pick < 17 ? rng.NextInt(2048, 2300)
                 : pick < 19 ? 4096
                             : 70000;
  return RandomBytes(rng, static_cast<size_t>(size), redundancy);
}

// Two consecutive calls on which a table that keeps an earlier call's positions emits a
// match that a cleared table does not, and that still decodes. The second call's input
// is R, then R[0, len) x y (one match of even length len that ends before x), fresh
// bytes, then g = R[len-2] R[len-1] x y. The match's sparse insertion skips g's first
// position q = |R| + len - 2, so a cleared table has no candidate when g recurs and
// emits it as literals. The first call's input has g at the same q and reaches it by
// literal scan, leaving q in g's slot, where a leaking table finds it.
void AppendStaleSlotPair(Rng& rng, std::vector<std::vector<uint8_t>>& calls) {
  std::vector<uint8_t> r = RandomBytes(rng, static_cast<size_t>(rng.NextInt(16, 64)), 0.0);
  size_t len = 2 * static_cast<size_t>(rng.NextInt(2, static_cast<int64_t>(r.size() - 1) / 2));
  std::vector<uint8_t> xy = RandomBytes(rng, 2, 0.0);
  xy[0] = static_cast<uint8_t>(r[len] + 1 + rng.NextBelow(255));  // the copy ends before x
  std::vector<uint8_t> g = {r[len - 2], r[len - 1], xy[0], xy[1]};

  std::vector<uint8_t> first = r;
  std::vector<uint8_t> fresh = RandomBytes(rng, len - 2, 0.0);
  first.insert(first.end(), fresh.begin(), fresh.end());
  first.insert(first.end(), g.begin(), g.end());

  std::vector<uint8_t> second = r;
  second.insert(second.end(), r.begin(), r.begin() + static_cast<ptrdiff_t>(len));
  second.insert(second.end(), xy.begin(), xy.end());
  fresh = RandomBytes(rng, static_cast<size_t>(rng.NextInt(1, 64)), 0.0);
  second.insert(second.end(), fresh.begin(), fresh.end());
  second.insert(second.end(), g.begin(), g.end());

  calls.push_back(std::move(first));
  calls.push_back(std::move(second));
}

// A seeded sequence of 2 to 8 calls (plus a 70,000-byte opener every fifth seed, so
// later calls run over its slots), some of them stale-slot pairs.
std::vector<std::vector<uint8_t>> CallSequence(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> calls;
  if (seed % 5 == 0) {
    calls.push_back(RandomBytes(rng, 70000, 0.9));
  }
  size_t length = calls.size() + static_cast<size_t>(rng.NextInt(2, 8));
  while (calls.size() < length) {
    if (rng.NextBool(0.1)) {
      AppendStaleSlotPair(rng, calls);
    } else {
      calls.push_back(NextInput(rng, calls.empty() ? std::vector<uint8_t>{} : calls.back()));
    }
  }
  return calls;
}

// The stamped table must parse every call exactly as a table cleared per call does, so
// Compress and CompressedSize match the oracle across call sequences on one thread. A
// table that leaks earlier calls' positions still round-trips (a stale candidate is a
// valid match), so only a differential comparison catches it.
TEST(LzCodecTest, StampedTableMatchesPerCallClearedTable) {
  size_t calls = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng order(~seed);
    std::vector<std::vector<uint8_t>> sequence = CallSequence(seed);
    for (size_t call = 0; call < sequence.size(); ++call) {
      const std::vector<uint8_t>& input = sequence[call];
      std::vector<uint8_t> expected = ReferenceCompress(input);
      bool size_first = order.NextBool(0.5);
      size_t size = size_first ? LzCodec::CompressedSize(input) : 0;
      ASSERT_EQ(LzCodec::Compress(input), expected)
          << "seed " << seed << " call " << call << " size " << input.size();
      if (!size_first) {
        size = LzCodec::CompressedSize(input);
      }
      ASSERT_EQ(size, expected.size())
          << "seed " << seed << " call " << call << " size " << input.size();
      ++calls;
    }
  }
  EXPECT_GT(calls, 1000u);
}

TEST(LzCodecTest, HigherRedundancyCompressesBetter) {
  Rng rng(77);
  std::vector<uint8_t> low(32768);
  std::vector<uint8_t> high(32768);
  rng.FillBytes(low.data(), low.size(), 0.2);
  rng.FillBytes(high.data(), high.size(), 0.95);
  EXPECT_GT(LzCodec::CompressedSize(low), LzCodec::CompressedSize(high));
}

}  // namespace
}  // namespace tcs
