#include "src/sim/units.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace tcs {

std::string Bytes::ToString() const {
  char buf[64];
  if (n_ >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fMiB", ToMiBF());
  } else if (n_ >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fKiB", ToKiBF());
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "B", n_);
  }
  return buf;
}

Duration TransmissionDelay(Bytes size, BitsPerSecond rate) {
  assert(rate.bps() > 0);
  assert(size.count() >= 0);
  // micros = bits * 1e6 / bps, rounded up.
  __int128 bits = static_cast<__int128>(size.count()) * 8;
  __int128 us = (bits * 1000000 + rate.bps() - 1) / rate.bps();
  return Duration::Micros(static_cast<int64_t>(us));
}

}  // namespace tcs
