// Protocol shootout: drive a custom interactive workload (your own mix of typing,
// widget redraws, and an animated element) over RDP, X, LBX, SLIM and VNC, and compare
// wire cost. Demonstrates composing the proto/workload layers directly on a
// ProtocolHarness, without a full Server.

#include <cstdio>

#include "src/proto/protocol_pipeline.h"
#include "src/util/table.h"
#include "src/workload/animation.h"
#include "src/workload/app_script.h"

namespace {

struct ShootoutResult {
  std::string name;
  int64_t bytes;
  int64_t messages;
  double mean_mbps;
  int64_t cache_hits;
};

ShootoutResult RunOne(tcs::ProtocolKind kind) {
  using namespace tcs;
  ProtocolHarness harness(kind, 11);
  Simulator& sim = harness.sim;

  // The custom workload: a spreadsheet-like editing session with a stock ticker in the
  // corner — the "modern user interface" trend the paper worries about.
  AppScript editing = AppScript::WordProcessor(Rng(42), 300);
  AnimationConfig ticker_cfg;
  ticker_cfg.id = 99;
  ticker_cfg.frame_count = 12;
  ticker_cfg.frame_period = Duration::Millis(250);
  ticker_cfg.width = 160;
  ticker_cfg.height = 24;
  Animation ticker(sim, harness.protocol(), ticker_cfg);
  ticker.Start();
  editing.Replay(sim, harness.protocol());
  // The ticker is unbounded: run exactly for the editing session's length, then stop it.
  sim.RunUntil(TimePoint::Zero() + editing.TotalDuration());
  ticker.Stop();
  harness.Drain();

  ShootoutResult r;
  r.name = ProtocolName(kind);
  r.bytes = harness.tap.total_counted_bytes().count();
  r.messages = harness.tap.total_messages();
  double seconds = editing.TotalDuration().ToSecondsF();
  r.mean_mbps = static_cast<double>(r.bytes) * 8.0 / seconds / 1e6;
  const BitmapCache* cache = harness.pipeline.cache();
  r.cache_hits = cache != nullptr ? cache->hits() : 0;
  return r;
}

}  // namespace

int main() {
  using namespace tcs;
  std::printf("protocol shootout: 300-step editing session + 4 Hz stock ticker\n\n");
  TextTable table({"protocol", "wire bytes", "messages", "mean load (Mbps)", "cache hits"});
  ShootoutResult best{};
  for (const ProtocolNames& protocol : kProtocols) {
    ShootoutResult r = RunOne(protocol.kind);
    table.AddRow({r.name, TextTable::Num(r.bytes), TextTable::Num(r.messages),
                  TextTable::Fixed(r.mean_mbps, 4), TextTable::Num(r.cache_hits)});
    if (best.name.empty() || r.bytes < best.bytes) {
      best = r;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("cheapest on the wire: %s at %.4f Mbps mean — on a 10 Mbps segment that is "
              "~%d concurrent users of headroom\n",
              best.name.c_str(), best.mean_mbps,
              static_cast<int>(10.0 / best.mean_mbps));
  return 0;
}
