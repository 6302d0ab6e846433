// RTT prober reproducing the paper's §6.2 methodology: run ping for 60 seconds at each
// load level, report the average and variance of RTT over all packets sent. Its 64-byte
// packet is "roughly the size of a typical input channel message, such as a keystroke",
// so these RTTs lower-bound what a thin-client user would see.

#ifndef TCS_SRC_NET_PING_H_
#define TCS_SRC_NET_PING_H_

#include "src/net/link.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"

namespace tcs {

class Ping {
 public:
  Ping(Simulator& sim, Link& link);

  Ping(const Ping&) = delete;
  Ping& operator=(const Ping&) = delete;
  ~Ping() { Stop(); }

  void Start();
  void Stop();

  // RTTs in milliseconds.
  const RunningStats& rtt() const { return rtt_ms_; }
  int64_t sent() const { return sent_; }
  int64_t received() const { return received_; }

 private:
  void SendOne();

  Simulator& sim_;
  Link& link_;
  bool running_ = false;
  EventId pending_;
  int64_t sent_ = 0;
  int64_t received_ = 0;
  RunningStats rtt_ms_;
};

}  // namespace tcs

#endif  // TCS_SRC_NET_PING_H_
