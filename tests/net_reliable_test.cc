// ReliableChannel: ARQ over a lossy Link. Healthy links add no recovery delay; lossy
// links recover every frame via RTO-driven retransmission with strict in-order release,
// and the counters reconcile exactly against the link's frame ledger.

#include "src/net/reliable.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/net/link.h"

namespace tcs {
namespace {

TEST(ReliableChannelTest, HealthyLinkDeliversWithLinkTiming) {
  Simulator sim;
  Link link(sim);
  ReliableChannel channel(sim, link);
  TimePoint delivered;
  channel.Send(Bytes::Of(1500), [&] { delivered = sim.Now(); });
  sim.Run();
  // No loss: delivery at the raw link time (1200 us serialization + 50 us propagation);
  // the ACK path adds nothing to the data path.
  EXPECT_EQ(delivered, TimePoint::FromMicros(1250));
  EXPECT_EQ(channel.frames_sent(), 1);
  EXPECT_EQ(channel.frames_delivered(), 1);
  EXPECT_EQ(channel.retransmissions(), 0);
  EXPECT_EQ(channel.acks_received(), 1);
}

TEST(ReliableChannelTest, HealthyLinkReleasesInOrder) {
  Simulator sim;
  Link link(sim);
  ReliableChannel channel(sim, link);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    channel.Send(Bytes::Of(500), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ReliableChannelTest, RecoversEveryFrameUnderLoss) {
  Simulator sim;
  Link link(sim);
  LinkFaultPlan plan;
  plan.loss_rate = 0.3;
  LinkFaultInjector injector(plan, 99);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);

  std::vector<int> order;
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    channel.Send(Bytes::Of(1000), [&order, i] { order.push_back(i); });
  }
  sim.Run();

  // Every frame eventually lands, strictly in order.
  ASSERT_EQ(static_cast<int>(order.size()), kFrames);
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_GT(channel.retransmissions(), 0);
  EXPECT_EQ(channel.frames_abandoned(), 0);
}

TEST(ReliableChannelTest, CountersReconcileAgainstLinkLedger) {
  Simulator sim;
  Link link(sim);
  LinkFaultPlan plan;
  plan.loss_rate = 0.25;
  LinkFaultInjector injector(plan, 7);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);

  for (int i = 0; i < 300; ++i) {
    channel.Send(Bytes::Of(800));
  }
  sim.Run();

  // The two reconciliation identities from the issue:
  //   link attempts == originals + retransmissions
  //   link attempts == delivered + lost
  EXPECT_EQ(link.frames_sent(), channel.frames_sent() + channel.retransmissions());
  EXPECT_EQ(link.frames_sent(), link.frames_delivered() + link.frames_lost());
  EXPECT_EQ(channel.frames_delivered(), 300);
}

TEST(ReliableChannelTest, RecoversAcrossScriptedOutage) {
  Simulator sim;
  Link link(sim);
  LinkFaultPlan plan;
  // 100 ms blackout starting at t=10ms: frames sent into it are swallowed and must be
  // retransmitted after it lifts.
  plan.scripted_outages = {
      {TimePoint::FromMicros(10'000), TimePoint::FromMicros(110'000)}};
  LinkFaultInjector injector(plan, 1);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);

  int delivered = 0;
  TimePoint last;
  // One frame before the outage, several during it.
  channel.Send(Bytes::Of(1000), [&] { ++delivered; last = sim.Now(); });
  sim.RunUntil(TimePoint::FromMicros(20'000));
  for (int i = 0; i < 5; ++i) {
    channel.Send(Bytes::Of(1000), [&] { ++delivered; last = sim.Now(); });
  }
  sim.Run();

  EXPECT_EQ(delivered, 6);
  EXPECT_GT(channel.retransmissions(), 0);
  // Nothing can complete before the outage ends.
  EXPECT_GT(last, TimePoint::FromMicros(110'000));
}

TEST(ReliableChannelTest, SrttSamplesOnCleanExchanges) {
  Simulator sim;
  Link link(sim);
  ReliableChannel channel(sim, link);
  EXPECT_EQ(channel.srtt(), Duration::Zero());
  for (int i = 0; i < 10; ++i) {
    channel.Send(Bytes::Of(1000));
  }
  sim.Run();
  // 1000 B data (800 us) + 50 us + 64 B ack (51.2 us) + 50 us ~= 951 us for an unqueued
  // exchange; with queueing the smoothed estimate stays above the floor.
  EXPECT_GT(channel.srtt(), Duration::Micros(900));
}

TEST(ReliableChannelTest, DeterministicAcrossReruns) {
  auto run = [] {
    Simulator sim;
    Link link(sim);
    LinkFaultPlan plan;
    plan.loss_rate = 0.2;
    LinkFaultInjector injector(plan, 1234);
    link.SetFaultInjector(&injector);
    ReliableChannel channel(sim, link);
    for (int i = 0; i < 100; ++i) {
      channel.Send(Bytes::Of(1200));
    }
    sim.Run();
    return std::tuple(channel.retransmissions(), link.frames_lost(),
                      channel.srtt().ToMicros(), sim.events_executed());
  };
  EXPECT_EQ(run(), run());
}

TEST(ReliableChannelTest, AbandonsAfterMaxAttemptsOnDeadLink) {
  Simulator sim;
  Link link(sim);
  LinkFaultPlan plan;
  plan.loss_rate = 0.999999;  // effectively dead, but Validate() would accept it
  LinkFaultInjector injector(plan, 5);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);

  bool fired = false;
  channel.Send(Bytes::Of(1000), [&] { fired = true; });
  sim.Run();
  // 24 attempts, then the frame is given up on.
  EXPECT_EQ(link.frames_sent(), 24);
  EXPECT_EQ(channel.retransmissions(), 23);
  EXPECT_EQ(channel.frames_abandoned(), 1);
  EXPECT_FALSE(fired);  // abandoned frames never pretend to deliver
}

}  // namespace
}  // namespace tcs
