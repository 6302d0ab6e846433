#include "src/proto/prototap.h"

namespace tcs {

ProtoTap::ProtoTap(Duration series_bucket)
    : display_(series_bucket), input_(series_bucket) {}

void ProtoTap::RecordMessage(Channel channel, Bytes payload, Bytes counted, TimePoint when) {
  SideStats& side = Side(channel);
  ++side.messages;
  side.payload += payload;
  side.counted += counted;
  side.series.Add(when, static_cast<double>(counted.count()));
}

double ProtoTap::AverageMessageSize() const {
  int64_t n = total_messages();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(total_counted_bytes().count()) / static_cast<double>(n);
}

}  // namespace tcs
