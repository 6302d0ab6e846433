// WAN pathology on the link layer: Gilbert–Elliott burst loss (determinism and
// burstiness), the bounded bufferbloat queue's drop-tail behaviour, asymmetric up/down
// serialization rates, per-frame jitter, and ReliableChannel's bounded send window.

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault_injector.h"
#include "src/net/link.h"
#include "src/net/reliable.h"

namespace tcs {
namespace {

LinkFaultPlan BurstLossPlan() {
  LinkFaultPlan plan;
  plan.wan.ge_p_good_to_bad = 0.2;
  plan.wan.ge_p_bad_to_good = 0.3;
  plan.wan.ge_loss_good = 0.0;
  plan.wan.ge_loss_bad = 1.0;  // every bad-state frame dies: fates trace the chain
  return plan;
}

std::vector<LinkFaultInjector::Fate> ClassifyFrames(LinkFaultInjector& injector, int n) {
  std::vector<LinkFaultInjector::Fate> fates;
  for (int i = 0; i < n; ++i) {
    TimePoint start = TimePoint::Zero() + Duration::Millis(i);
    fates.push_back(injector.Classify(start, start + Duration::Micros(100)));
  }
  return fates;
}

TEST(GilbertElliottTest, FateSequenceIsDeterministicPerSeed) {
  LinkFaultInjector a(BurstLossPlan(), 42);
  LinkFaultInjector b(BurstLossPlan(), 42);
  EXPECT_EQ(ClassifyFrames(a, 500), ClassifyFrames(b, 500));
  EXPECT_EQ(a.burst_losses(), b.burst_losses());

  LinkFaultInjector c(BurstLossPlan(), 43);
  EXPECT_NE(ClassifyFrames(a, 500), ClassifyFrames(c, 500));
}

TEST(GilbertElliottTest, LossesComeInBurstsAndAreCountedAsBurstLosses) {
  LinkFaultInjector injector(BurstLossPlan(), 7);
  std::vector<LinkFaultInjector::Fate> fates = ClassifyFrames(injector, 1000);
  // With Bernoulli loss disabled, every loss is the chain's doing.
  EXPECT_GT(injector.burst_losses(), 0);
  EXPECT_EQ(injector.burst_losses(), injector.frames_lost());
  // The chain spends p_gb/(p_gb+p_bg) = 40% of its time bad (all of it lossy here).
  EXPECT_NEAR(injector.BadStateFraction(), 0.4, 0.1);
  // Bursts: mean bad-state dwell is 1/p_bg ≈ 3.3 frames, so consecutive losses must
  // appear — a plain Bernoulli stream at the same average rate rarely pairs them up.
  int longest_run = 0;
  int run = 0;
  for (LinkFaultInjector::Fate f : fates) {
    run = (f == LinkFaultInjector::Fate::kLost) ? run + 1 : 0;
    longest_run = std::max(longest_run, run);
  }
  EXPECT_GE(longest_run, 3);
}

TEST(GilbertElliottTest, EmptyWanPlanStaysInert) {
  LinkFaultPlan plan;
  plan.loss_rate = 0.01;  // classic Bernoulli faults only
  LinkFaultInjector injector(plan, 5);
  EXPECT_FALSE(injector.wan_active());
  ClassifyFrames(injector, 200);
  EXPECT_EQ(injector.burst_losses(), 0);
  EXPECT_DOUBLE_EQ(injector.BadStateFraction(), 0.0);
}

TEST(WanLinkTest, DownRateOverridesSerializationExactly) {
  // The 10 Mbps link under a 2 Mbps WAN downlink must deliver exactly as a plain 2 Mbps
  // link would (no extra delay, no jitter, no loss configured): serialization at 2 Mbps
  // plus the 50 us propagation.
  Simulator sim;
  Link wan_link(sim);
  EXPECT_EQ(wan_link.DownRate().bps(), BitsPerSecond::Mbps(10).bps());
  LinkFaultPlan plan;
  plan.wan.down_rate = BitsPerSecond::Mbps(2);
  plan.wan.up_rate = BitsPerSecond::Kbps(256);
  LinkFaultInjector injector(plan, 1);
  wan_link.SetFaultInjector(&injector);
  EXPECT_EQ(wan_link.DownRate().bps(), BitsPerSecond::Mbps(2).bps());
  EXPECT_EQ(wan_link.UpRate().bps(), BitsPerSecond::Kbps(256).bps());

  TimePoint wan_delivered;
  wan_link.Send(Bytes::Of(1200), [&] { wan_delivered = sim.Now(); });
  sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(wan_delivered, TimePoint::Zero() +
                               TransmissionDelay(Bytes::Of(1200), BitsPerSecond::Mbps(2)) +
                               kPropagation);
  EXPECT_GT(wan_delivered, TimePoint::Zero());
}

TEST(WanLinkTest, ExtraDelayAndJitterShiftDeliveryDeterministically) {
  auto deliver_at = [](uint64_t seed) {
    Simulator sim;
    Link link(sim);
    LinkFaultPlan plan;
    plan.wan.extra_delay = Duration::Millis(10);
    plan.wan.jitter = Duration::Millis(5);
    LinkFaultInjector injector(plan, seed);
    link.SetFaultInjector(&injector);
    TimePoint delivered;
    link.Send(Bytes::Of(500), [&] { delivered = sim.Now(); });
    sim.RunFor(Duration::Seconds(1));
    return delivered;
  };
  // Baseline: the same frame with no WAN profile.
  Simulator sim;
  Link plain(sim);
  TimePoint base;
  plain.Send(Bytes::Of(500), [&] { base = sim.Now(); });
  sim.RunFor(Duration::Seconds(1));

  TimePoint d1 = deliver_at(9);
  EXPECT_GE(d1 - base, Duration::Millis(10));
  EXPECT_LT(d1 - base, Duration::Millis(15));
  EXPECT_EQ(d1, deliver_at(9));  // same seed, same jitter draw
}

TEST(WanLinkTest, DropTailBoundsTheBufferbloatQueue) {
  Simulator sim;
  Link link(sim);
  LinkFaultPlan plan;
  plan.wan.down_rate = BitsPerSecond::Mbps(1);
  plan.wan.queue_bytes = Bytes::KiB(2);
  LinkFaultInjector injector(plan, 3);
  link.SetFaultInjector(&injector);

  int64_t delivered = 0;
  for (int i = 0; i < 20; ++i) {
    link.Send(Bytes::Of(1000), [&delivered] { ++delivered; });
    // The backlog never exceeds the bound by more than the one frame being accepted.
    EXPECT_LE(link.BacklogBytesAt(sim.Now()).count(),
              plan.wan.queue_bytes.count() + 1000 + kEthernetFraming.count());
  }
  sim.RunFor(Duration::Seconds(5));
  EXPECT_GT(link.wan_queue_drops(), 0);
  EXPECT_LT(delivered, 20);
  // Ledger stays closed: every attempt either arrived or was counted lost.
  EXPECT_EQ(link.frames_sent(), link.frames_delivered() + link.frames_lost());
  EXPECT_EQ(link.frames_delivered(), delivered);
  EXPECT_GE(link.frames_lost(), link.wan_queue_drops());
}

TEST(ReliableWindowTest, FullWindowShedsAtTheDoor) {
  Simulator sim;
  Link link(sim);
  ReliableChannel channel(sim, link);

  int64_t delivered = 0;
  for (int i = 0; i < 4106; ++i) {
    channel.Send(Bytes::Of(200), [&delivered] { ++delivered; });
  }
  // The 4,096-frame window accepted (in flight), ten refused before getting a sequence
  // number.
  EXPECT_EQ(channel.frames_sent(), 4096);
  EXPECT_EQ(channel.frames_shed(), 10);
  EXPECT_EQ(channel.frames_in_flight(), 4096);
  EXPECT_TRUE(channel.InBackpressure());

  sim.RunFor(Duration::Seconds(2));
  EXPECT_EQ(channel.frames_delivered(), 4096);
  EXPECT_EQ(delivered, 4096);  // shed frames never fire their callbacks
  EXPECT_EQ(channel.frames_in_flight(), 0);
  EXPECT_DOUBLE_EQ(channel.WindowFill(), 0.0);
}

}  // namespace
}  // namespace tcs
