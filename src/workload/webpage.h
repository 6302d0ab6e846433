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

struct MarqueeConfig {
  uint64_t id = 2;
  // The ticker band scrolls through this many distinct strip positions before repeating.
  int strip_count = 95;
  int width = 468;
  int height = 40;
  Duration tick = Duration::Millis(100);  // 10 Hz scroll
  double compression_ratio = 0.8;
  // Newly exposed column drawn each tick: always-new pixels (never cacheable).
  int edge_height = 2;
};

// The scrolling news ticker: each tick blits the band sideways (CopyArea), redraws the
// band from a cyclic strip set (cache-friendly in isolation), and paints the newly exposed
// edge column (never cached).
class Marquee {
 public:
  Marquee(Simulator& sim, DisplayProtocol& protocol, MarqueeConfig config = {});

  Marquee(const Marquee&) = delete;
  Marquee& operator=(const Marquee&) = delete;

  void Start(Duration initial_delay = Duration::Zero());
  void Stop();

  int64_t ticks() const { return ticks_; }
  // Total bytes of the cyclic strip set (what it occupies in a client bitmap cache).
  Bytes StripSetBytes() const;

 private:
  void Tick();

  DisplayProtocol& protocol_;
  MarqueeConfig config_;
  std::vector<BitmapRef> strips_;
  int next_strip_ = 0;
  uint64_t edge_counter_ = 0;
  int64_t ticks_ = 0;
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

  Animation* banner() { return banner_ ? &*banner_ : nullptr; }
  Marquee* marquee() { return marquee_ ? &*marquee_ : nullptr; }

 private:
  std::optional<Animation> banner_;
  std::optional<Marquee> marquee_;
};

}  // namespace tcs

#endif  // TCS_SRC_WORKLOAD_WEBPAGE_H_
