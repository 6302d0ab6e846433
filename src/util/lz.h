// A small, real LZ77-style codec.
//
// The LBX protocol model compresses actual message payloads with this codec, so measured
// compression ratios respond to payload entropy the way the real LBX stream compressor
// (which used a Lempel-Ziv variant) did. The format is byte-oriented:
//
//   control byte C:
//     0x00..0x7F : literal run of C+1 bytes follows
//     0x80..0xFF : match; length = (C & 0x7F) + kMinMatch, followed by a 2-byte
//                  little-endian backward offset (1-based, <= 64 KiB window)
//
// Round-trip (Compress then Decompress) is the identity; tests enforce this as a property.
//
// The compressor's match finder is one hash table per thread (128 KiB of uint32_t slots,
// allocated on the thread's first call), reused across calls instead of cleared on each:
// a slot holds `base + pos + 1`, every call advances `base` past its own slots, and a
// slot at or below the call's `base` reads as empty. Output is therefore exactly that of
// a table cleared per call, and calls on different threads never share a table. Input
// must be shorter than 2^32 - 1 bytes (asserted), so one call's slots fit between two
// refills of the table.
//
// CompressedSizes sizes an input and one of its prefixes from one parse. Standing at a
// position i with i + kMaxMatch + kMinMatch <= prefix, the greedy parse of the prefix
// reads, compares and inserts exactly what the parse of the whole input does. The call
// parses up to there once, runs the rest of the prefix (fewer than kMaxMatch + kMinMatch
// positions) while logging its table writes, undoes them, and finishes the whole input
// from the shared state.

#ifndef TCS_SRC_UTIL_LZ_H_
#define TCS_SRC_UTIL_LZ_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace tcs {

class LzCodec {
 public:
  static constexpr size_t kMinMatch = 4;
  static constexpr size_t kMaxMatch = 0x7F + kMinMatch;
  static constexpr size_t kWindow = 64 * 1024;

  // Compresses `input`. Output is never more than input.size() + input.size()/128 + 2.
  static std::vector<uint8_t> Compress(const std::vector<uint8_t>& input);

  // Decompresses; returns std::nullopt on malformed input (truncated stream, offset
  // pointing before the start of output).
  static std::optional<std::vector<uint8_t>> Decompress(const std::vector<uint8_t>& input);

  // Compress(input[0, prefix)).size() and Compress(input).size(), from one parse and
  // without building either output: what LBX needs to size a message appended to its
  // history. Requires prefix <= input.size().
  struct Sizes {
    size_t prefix = 0;
    size_t whole = 0;
  };
  static Sizes CompressedSizes(const std::vector<uint8_t>& input, size_t prefix);
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_LZ_H_
