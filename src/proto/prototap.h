// prototap — the paper's protocol tracing tool, reimplemented.
//
// The original was "our own protocol tracing software based on the tcpdump pcap packet
// sniffing library" (§6.1.2). Ours observes protocol messages as they are emitted and
// accumulates, per channel: message count, payload bytes, counted (payload + TCP/IP
// header) bytes, and a byte-rate time series for the load-vs-time figures.

#ifndef TCS_SRC_PROTO_PROTOTAP_H_
#define TCS_SRC_PROTO_PROTOTAP_H_

#include <cstdint>

#include "src/proto/draw.h"
#include "src/sim/time.h"
#include "src/sim/units.h"
#include "src/util/time_series.h"

namespace tcs {

class ProtoTap {
 public:
  explicit ProtoTap(Duration series_bucket = Duration::Seconds(1));

  void RecordMessage(Channel channel, Bytes payload, Bytes counted, TimePoint when);

  int64_t messages(Channel channel) const { return Side(channel).messages; }
  Bytes payload_bytes(Channel channel) const { return Side(channel).payload; }
  Bytes counted_bytes(Channel channel) const { return Side(channel).counted; }

  int64_t total_messages() const {
    return display_.messages + input_.messages;
  }
  Bytes total_counted_bytes() const { return display_.counted + input_.counted; }

  // Average counted message size across both channels (the paper's "Avg. message size").
  double AverageMessageSize() const;

  // Counted bytes per bucket on one channel; divide by bucket seconds for load.
  const TimeSeries& series(Channel channel) const { return Side(channel).series; }

 private:
  struct SideStats {
    explicit SideStats(Duration bucket) : series(bucket) {}
    int64_t messages = 0;
    Bytes payload = Bytes::Zero();
    Bytes counted = Bytes::Zero();
    TimeSeries series;
  };

  const SideStats& Side(Channel channel) const {
    return channel == Channel::kDisplay ? display_ : input_;
  }
  SideStats& Side(Channel channel) {
    return channel == Channel::kDisplay ? display_ : input_;
  }

  SideStats display_;
  SideStats input_;
};

}  // namespace tcs

#endif  // TCS_SRC_PROTO_PROTOTAP_H_
