// The synthetic media-intensive webpage of §6.1.3 / Figure 4, "modeled after
// http://www.msnbc.com/": one animated 468x60 GIF banner advertisement plus an HTML
// scrolling news ticker (marquee).
//
// The two elements are sized so that either one's frame set fits the client's 1.5 MB
// bitmap cache but their union does not — the mechanism behind Figure 4's non-linearity:
// displayed separately they cost 0.07 / 0.01 Mbps; together the cache thrashes and
// sustained load jumps to ~1.6 Mbps.

#ifndef TCS_SRC_WORKLOAD_WEBPAGE_H_
#define TCS_SRC_WORKLOAD_WEBPAGE_H_

#include <optional>
#include <vector>

#include "src/proto/display_protocol.h"
#include "src/sim/periodic.h"
#include "src/workload/animation.h"

namespace tcs {

// The scrolling news ticker, a 468x40 band scrolling at 10 Hz: each tick blits the band
// sideways (CopyArea), redraws the band from a cyclic set of 95 strips (cache-friendly in
// isolation), and paints the newly exposed 2-pixel edge column (fresh pixels, never
// cached).
class Marquee {
 public:
  Marquee(Simulator& sim, DisplayProtocol& protocol);

  Marquee(const Marquee&) = delete;
  Marquee& operator=(const Marquee&) = delete;

  void Start(Duration initial_delay = Duration::Zero());
  void Stop();

 private:
  void Tick();

  DisplayProtocol& protocol_;
  std::vector<BitmapRef> strips_;
  int next_strip_ = 0;
  uint64_t edge_counter_ = 0;
  PeriodicTask task_;
};

struct WebPageConfig {
  bool banner = true;
  bool marquee = true;
};

class WebPage {
 public:
  WebPage(Simulator& sim, DisplayProtocol& protocol, WebPageConfig config = {});

  void Open();   // begins whatever elements are enabled
  void Close();


 private:
  std::optional<Animation> banner_;
  std::optional<Marquee> marquee_;
};

}  // namespace tcs

#endif  // TCS_SRC_WORKLOAD_WEBPAGE_H_
