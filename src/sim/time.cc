#include "src/sim/time.h"

#include <cinttypes>
#include <cstdio>

namespace tcs {

namespace {

std::string FormatMicros(int64_t us) {
  char buf[64];
  if (us == 0) {
    return "0us";
  }
  const char* sign = us < 0 ? "-" : "";
  uint64_t mag = us < 0 ? static_cast<uint64_t>(-us) : static_cast<uint64_t>(us);
  if (mag % 1000000 == 0) {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64 "s", sign, mag / 1000000);
  } else if (mag >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", sign, static_cast<double>(mag) / 1e6);
  } else if (mag % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64 "ms", sign, mag / 1000);
  } else if (mag >= 1000) {
    std::snprintf(buf, sizeof(buf), "%s%.3fms", sign, static_cast<double>(mag) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64 "us", sign, mag);
  }
  return buf;
}

}  // namespace

std::string Duration::ToString() const {
  if (IsInfinite()) {
    return "inf";
  }
  return FormatMicros(us_);
}

}  // namespace tcs
