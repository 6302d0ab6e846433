#include "src/sim/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace tcs {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

Rng Rng::Fork() {
  return Rng(NextU64());
}

uint64_t Rng::NextU64() {
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection: discard values in the biased low zone.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextU64());
  }
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high-quality mantissa bits.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  assert(mean > 0.0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

double Rng::NextNormal(double mean, double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

void Rng::FillBytes(uint8_t* data, size_t len, double redundancy) {
  // Redundant regions are runs of a repeated recent byte; non-redundant bytes are fresh
  // random draws. This yields data whose LZ-compressibility tracks `redundancy`.
  uint8_t last = static_cast<uint8_t>(NextU64());
  // Each byte's coin is NextBool(redundancy), which draws nothing at p <= 0 or p >= 1.
  if (redundancy >= 1.0) {
    std::fill_n(data, len, last);
    return;
  }
  if (redundancy <= 0.0) {
    for (size_t i = 0; i < len; ++i) {
      data[i] = static_cast<uint8_t>(NextU64());
    }
    return;
  }
  // Otherwise the coin is NextDouble() < p, that is (u >> 11) * 2^-53 < p, which for an
  // integer u >> 11 holds exactly when u >> 11 < ceil(p * 2^53). NaN fails the coin, as
  // it fails NextBool's comparison.
  const uint64_t threshold =
      std::isnan(redundancy) ? 0 : static_cast<uint64_t>(std::ceil(std::ldexp(redundancy, 53)));
  for (size_t i = 0; i < len; ++i) {
    if ((NextU64() >> 11) < threshold) {
      data[i] = last;
    } else {
      data[i] = static_cast<uint8_t>(NextU64());
      last = data[i];
    }
  }
}

}  // namespace tcs
