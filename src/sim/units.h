// Strong data-size and data-rate types.
//
// Bytes is a count of octets; BitsPerSecond a link or traffic rate. Division of size by
// rate yields a Duration (serialization delay), keeping bandwidth math unit-checked.

#ifndef TCS_SRC_SIM_UNITS_H_
#define TCS_SRC_SIM_UNITS_H_

#include <cstdint>
#include <compare>
#include <string>

#include "src/sim/time.h"

namespace tcs {

class Bytes {
 public:
  constexpr Bytes() = default;

  static constexpr Bytes Of(int64_t n) { return Bytes(n); }
  static constexpr Bytes KiB(int64_t n) { return Bytes(n * 1024); }
  static constexpr Bytes MiB(int64_t n) { return Bytes(n * 1024 * 1024); }
  static constexpr Bytes Zero() { return Bytes(0); }

  constexpr int64_t count() const { return n_; }
  constexpr double ToKiBF() const { return static_cast<double>(n_) / 1024.0; }
  constexpr double ToMiBF() const { return static_cast<double>(n_) / (1024.0 * 1024.0); }

  constexpr Bytes operator+(Bytes other) const { return Bytes(n_ + other.n_); }
  constexpr Bytes operator-(Bytes other) const { return Bytes(n_ - other.n_); }
  constexpr Bytes operator*(int64_t k) const { return Bytes(n_ * k); }
  constexpr double operator/(Bytes other) const {
    return static_cast<double>(n_) / static_cast<double>(other.n_);
  }
  Bytes& operator+=(Bytes other) {
    n_ += other.n_;
    return *this;
  }
  Bytes& operator-=(Bytes other) {
    n_ -= other.n_;
    return *this;
  }

  constexpr auto operator<=>(const Bytes&) const = default;

  std::string ToString() const;

 private:
  explicit constexpr Bytes(int64_t n) : n_(n) {}
  int64_t n_ = 0;
};

constexpr Bytes operator*(int64_t k, Bytes b) { return b * k; }

class BitsPerSecond {
 public:
  constexpr BitsPerSecond() = default;

  static constexpr BitsPerSecond Of(int64_t bps) { return BitsPerSecond(bps); }
  static constexpr BitsPerSecond Kbps(int64_t k) { return BitsPerSecond(k * 1000); }
  static constexpr BitsPerSecond Mbps(int64_t m) { return BitsPerSecond(m * 1000000); }
  static constexpr BitsPerSecond MbpsF(double m) {
    return BitsPerSecond(static_cast<int64_t>(m * 1e6));
  }

  constexpr int64_t bps() const { return bps_; }
  constexpr double ToMbpsF() const { return static_cast<double>(bps_) / 1e6; }

  constexpr auto operator<=>(const BitsPerSecond&) const = default;

 private:
  explicit constexpr BitsPerSecond(int64_t bps) : bps_(bps) {}
  int64_t bps_ = 0;
};

// Time to serialize `size` onto a link of rate `rate`. Rounds up to whole microseconds so
// back-to-back transmissions never overlap.
Duration TransmissionDelay(Bytes size, BitsPerSecond rate);

}  // namespace tcs

#endif  // TCS_SRC_SIM_UNITS_H_
