// Synthetic background load for the latency-vs-load experiments (§6.2).
//
// A Poisson process of fixed-size frames offered to the link at a configured rate. The
// offered rate counts wire bytes, so "9.6 Mbps offered on a 10 Mbps link" means utilization
// 0.96, the regime where Figure 8's RTT curve takes off.

#ifndef TCS_SRC_NET_TRAFFIC_GEN_H_
#define TCS_SRC_NET_TRAFFIC_GEN_H_

#include "src/net/link.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcs {

class PoissonTrafficGenerator {
 public:
  PoissonTrafficGenerator(Simulator& sim, Rng rng, Link& link, BitsPerSecond offered_rate,
                          Bytes frame_size);

  PoissonTrafficGenerator(const PoissonTrafficGenerator&) = delete;
  PoissonTrafficGenerator& operator=(const PoissonTrafficGenerator&) = delete;
  ~PoissonTrafficGenerator() { Stop(); }

  void Start();
  void Stop();

  int64_t frames_offered() const { return frames_offered_; }

 private:
  void ScheduleNext();

  Simulator& sim_;
  Rng rng_;
  Link& link_;
  Bytes frame_size_;
  double mean_interarrival_us_;
  bool running_ = false;
  EventId pending_;
  int64_t frames_offered_ = 0;
};

}  // namespace tcs

#endif  // TCS_SRC_NET_TRAFFIC_GEN_H_
