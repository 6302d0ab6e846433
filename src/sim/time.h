// Strong time types for the discrete-event simulator.
//
// All simulation time is integral microseconds of *virtual* time. Strong types keep
// durations, absolute times, and plain counters from being mixed up (a classic source of
// unit bugs in schedulers, where quanta, timestamps, and tick counts all look like int64).

#ifndef TCS_SRC_SIM_TIME_H_
#define TCS_SRC_SIM_TIME_H_

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace tcs {

// A signed span of virtual time with microsecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration Micros(int64_t us) { return Duration(us); }
  static constexpr Duration Millis(int64_t ms) { return Duration(ms * 1000); }
  static constexpr Duration Seconds(int64_t s) { return Duration(s * 1000000); }
  static constexpr Duration SecondsF(double s) {
    return Duration(static_cast<int64_t>(s * 1e6));
  }
  static constexpr Duration Zero() { return Duration(0); }
  static constexpr Duration Infinite() {
    return Duration(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t ToMicros() const { return us_; }
  constexpr double ToMillisF() const { return static_cast<double>(us_) / 1e3; }
  constexpr double ToSecondsF() const { return static_cast<double>(us_) / 1e6; }
  constexpr bool IsZero() const { return us_ == 0; }
  constexpr bool IsInfinite() const { return us_ == std::numeric_limits<int64_t>::max(); }

  constexpr Duration operator+(Duration other) const { return Duration(us_ + other.us_); }
  constexpr Duration operator-(Duration other) const { return Duration(us_ - other.us_); }
  constexpr Duration operator*(int64_t k) const { return Duration(us_ * k); }
  constexpr Duration operator*(int k) const { return Duration(us_ * k); }
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(us_) * k));
  }
  constexpr Duration operator/(int64_t k) const { return Duration(us_ / k); }
  constexpr double operator/(Duration other) const {
    return static_cast<double>(us_) / static_cast<double>(other.us_);
  }
  constexpr Duration operator-() const { return Duration(-us_); }
  Duration& operator+=(Duration other) {
    us_ += other.us_;
    return *this;
  }
  Duration& operator-=(Duration other) {
    us_ -= other.us_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  // Renders "1.5ms", "250ms", "2.5s", "17us" — smallest unit that keeps the value readable.
  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t us) : us_(us) {}

  int64_t us_ = 0;
};

constexpr Duration operator*(int64_t k, Duration d) { return d * k; }

// An absolute point on the simulation clock. Time zero is simulation start.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint FromMicros(int64_t us) { return TimePoint(us); }
  static constexpr TimePoint Zero() { return TimePoint(0); }
  static constexpr TimePoint Infinite() {
    return TimePoint(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t ToMicros() const { return us_; }
  constexpr double ToMillisF() const { return static_cast<double>(us_) / 1e3; }
  constexpr double ToSecondsF() const { return static_cast<double>(us_) / 1e6; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint(us_ + d.ToMicros()); }
  constexpr TimePoint operator-(Duration d) const { return TimePoint(us_ - d.ToMicros()); }
  constexpr Duration operator-(TimePoint other) const {
    return Duration::Micros(us_ - other.us_);
  }
  TimePoint& operator+=(Duration d) {
    us_ += d.ToMicros();
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  explicit constexpr TimePoint(int64_t us) : us_(us) {}

  int64_t us_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_SIM_TIME_H_
