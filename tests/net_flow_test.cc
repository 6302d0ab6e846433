// SessionFlow, the per-session accounting tap on a shared transport: what it counts over
// a lossy Link and over a ReliableChannel, and that counting adds no event of its own.

#include "src/net/flow.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/fault/fault_injector.h"
#include "src/net/link.h"
#include "src/net/reliable.h"
#include "src/sim/simulator.h"

namespace tcs {
namespace {

// Sends below one MTU, so every send is exactly one frame on the wire.
constexpr int64_t kSendBytes = 400;

LinkFaultPlan Lossy(double loss_rate) {
  LinkFaultPlan plan;
  plan.loss_rate = loss_rate;
  return plan;
}

// Every frame sent in the first second falls inside this window.
LinkFaultPlan OutageCoveringFirstSecond() {
  LinkFaultPlan plan;
  plan.scripted_outages.push_back(
      OutageWindow{TimePoint::Zero(), TimePoint::Zero() + Duration::Seconds(1)});
  return plan;
}

TEST(SessionFlowTest, OverALossyLinkCountsEachDeliveredSendOnce) {
  Simulator sim;
  Link link(sim);
  LinkFaultInjector injector(Lossy(0.3), 5);
  link.SetFaultInjector(&injector);
  SessionFlow flow(link);
  for (int i = 0; i < 200; ++i) {
    flow.Send(Bytes::Of(kSendBytes));
  }
  sim.RunFor(Duration::Seconds(5));

  EXPECT_EQ(flow.sends(), 200);
  EXPECT_EQ(flow.wire_bytes(), Bytes::Of(200 * kSendBytes));
  EXPECT_GT(link.frames_lost(), 0);
  // One frame per send: the delivered frames are the delivered sends, and a lost one
  // never counts.
  EXPECT_EQ(flow.delivered(), link.frames_delivered());
  EXPECT_EQ(flow.delivered() + link.frames_lost(), 200);
}

TEST(SessionFlowTest, OverAReliableChannelShedSendsNeverCount) {
  Simulator sim;
  Link link(sim);
  LinkFaultInjector injector(Lossy(0.3), 9);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);
  SessionFlow flow(channel);
  // Twelve sends past the channel's 4,096-frame window.
  for (int i = 0; i < 4108; ++i) {
    flow.Send(Bytes::Of(kSendBytes));
  }
  sim.RunFor(Duration::Seconds(30));

  EXPECT_EQ(flow.sends(), 4108);
  EXPECT_EQ(channel.frames_shed(), 12);
  EXPECT_GT(channel.retransmissions(), 0);
  EXPECT_EQ(channel.frames_abandoned(), 0);
  // Recovered losses count once, at their in-order release; shed sends never do.
  EXPECT_EQ(channel.frames_delivered(), 4096);
  EXPECT_EQ(flow.delivered(), 4096);
}

// A caller's delivery callback rides through the flow: it fires exactly once per
// delivered send, and the flow has already counted that send when it runs.
void ExpectCallbackFiresOnceAfterTheCount(FrameTransport& transport, Simulator& sim) {
  SessionFlow flow(transport);
  int fired = 0;
  int64_t counted_at_callback = -1;
  flow.Send(Bytes::Of(kSendBytes), [&] {
    ++fired;
    counted_at_callback = flow.delivered();
  });
  sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(counted_at_callback, 1);
  EXPECT_EQ(flow.delivered(), 1);
}

TEST(SessionFlowTest, CallerCallbackOverALinkFiresOnceAfterTheCount) {
  Simulator sim;
  Link link(sim);
  ExpectCallbackFiresOnceAfterTheCount(link, sim);
}

TEST(SessionFlowTest, CallerCallbackOverAReliableChannelFiresOnceAfterTheCount) {
  Simulator sim;
  Link link(sim);
  LinkFaultInjector injector(Lossy(0.5), 3);
  link.SetFaultInjector(&injector);
  ReliableChannel channel(sim, link);
  ExpectCallbackFiresOnceAfterTheCount(channel, sim);
}

TEST(SessionFlowTest, CallerCallbackOfALostSendNeverFires) {
  Simulator sim;
  Link link(sim);
  LinkFaultInjector injector(OutageCoveringFirstSecond(), 1);
  link.SetFaultInjector(&injector);
  SessionFlow flow(link);
  int fired = 0;
  flow.Send(Bytes::Of(kSendBytes), [&] { ++fired; });
  sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(flow.delivered(), 0);
  EXPECT_EQ(link.frames_lost(), 1);
}

// Whether a frame is lost or delivered, its send schedules the same single event, so a
// run's event count does not depend on fates.
TEST(SessionFlowTest, SendsLostToAnOutageExecuteAsManyEventsAsDeliveredOnes) {
  auto run = [](bool outage, int64_t* delivered) {
    Simulator sim;
    Link link(sim);
    LinkFaultInjector injector(outage ? OutageCoveringFirstSecond() : LinkFaultPlan{}, 1);
    if (outage) {
      link.SetFaultInjector(&injector);
    }
    SessionFlow flow(link);
    for (int i = 0; i < 50; ++i) {
      flow.Send(Bytes::Of(kSendBytes));
    }
    sim.RunFor(Duration::Seconds(5));
    *delivered = flow.delivered();
    return sim.events_executed();
  };
  int64_t lost_delivered = -1;
  int64_t healthy_delivered = -1;
  uint64_t lost_events = run(true, &lost_delivered);
  uint64_t healthy_events = run(false, &healthy_delivered);
  EXPECT_EQ(lost_delivered, 0);
  EXPECT_EQ(healthy_delivered, 50);
  EXPECT_EQ(lost_events, 50u);
  EXPECT_EQ(lost_events, healthy_events);
}

}  // namespace
}  // namespace tcs
