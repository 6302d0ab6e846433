// Deterministic pseudo-random source for simulations.
//
// xoshiro256** (Blackman & Vigna) with a SplitMix64 seeder. Each model component should own
// its own Rng (or a Fork() of a parent Rng) so adding a component never perturbs the random
// streams of the others — a requirement for reproducible A/B experiments.

#ifndef TCS_SRC_SIM_RANDOM_H_
#define TCS_SRC_SIM_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace tcs {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // A child generator whose stream is independent of (but derived from) this one's state.
  Rng Fork();

  // Uniform on the full 64-bit range.
  uint64_t NextU64();

  // Uniform on [0, bound). bound must be > 0. Uses rejection sampling (no modulo bias).
  uint64_t NextBelow(uint64_t bound);

  // Uniform on [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform on [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Exponential with the given mean (> 0). Used for Poisson arrival processes.
  double NextExponential(double mean);

  // Normal via Box-Muller (no cached second value, to keep the stream state simple).
  double NextNormal(double mean, double stddev);

  // Fills `data` with pseudo-random bytes whose `redundancy` in [0,1] controls
  // compressibility: 0 = incompressible noise, 1 = highly repetitive. Used to generate
  // protocol payloads with realistic entropy.
  void FillBytes(uint8_t* data, size_t len, double redundancy);

 private:
  std::array<uint64_t, 4> s_;
};

}  // namespace tcs

#endif  // TCS_SRC_SIM_RANDOM_H_
