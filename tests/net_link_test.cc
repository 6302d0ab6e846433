#include "src/net/link.h"

#include <gtest/gtest.h>

#include <utility>

namespace tcs {
namespace {

TEST(LinkTest, SingleFrameLatencyIsSerializationPlusPropagation) {
  Simulator sim;
  Link link(sim);
  TimePoint delivered;
  link.Send(Bytes::Of(1500), [&] { delivered = sim.Now(); });
  sim.Run();
  // 1500 B at 10 Mbps = 1200 us + 50 us propagation.
  EXPECT_EQ(delivered, TimePoint::FromMicros(1250));
}

TEST(LinkTest, FramesSerializeFifo) {
  Simulator sim;
  Link link(sim);
  TimePoint first;
  TimePoint second;
  link.Send(Bytes::Of(1500), [&] { first = sim.Now(); });
  link.Send(Bytes::Of(1500), [&] { second = sim.Now(); });
  sim.Run();
  EXPECT_EQ(first, TimePoint::FromMicros(1250));
  EXPECT_EQ(second, TimePoint::FromMicros(2450));
}

TEST(LinkTest, QueueDelayRecorded) {
  Simulator sim;
  Link link(sim);
  link.Send(Bytes::Of(1500));
  link.Send(Bytes::Of(1500));
  sim.Run();
  EXPECT_EQ(link.queue_delay().count(), 2);
  EXPECT_DOUBLE_EQ(link.queue_delay().min(), 0.0);
  EXPECT_DOUBLE_EQ(link.queue_delay().max(), 1.2);  // behind one 1500 B frame
}

TEST(LinkTest, CarriedBytesAndFrames) {
  Simulator sim;
  Link link(sim);
  link.Send(Bytes::Of(100));
  link.Send(Bytes::Of(200));
  EXPECT_EQ(link.frames_sent(), 2);
  EXPECT_EQ(link.bytes_carried(), Bytes::Of(300));
}

TEST(LinkTest, LoadSeriesAccumulatesBytes) {
  Simulator sim;
  Link link(sim);
  link.Send(Bytes::Of(1250));  // 1 ms serialization exactly
  sim.Run();
  double total = 0.0;
  for (size_t i = 0; i < link.load_series().bucket_count(); ++i) {
    total += link.load_series().Sum(i);
  }
  EXPECT_NEAR(total, 1250.0, 1e-9);
}

TEST(LinkTest, UtilizationOverWindow) {
  Simulator sim;
  Link link(sim);
  // 1.25 MB over one second at 10 Mbps = 100% utilization.
  for (int i = 0; i < 1000; ++i) {
    link.Send(Bytes::Of(1250));
  }
  EXPECT_NEAR(link.UtilizationOver(Duration::Seconds(1)), 1.0, 1e-9);
  EXPECT_NEAR(link.UtilizationOver(Duration::Seconds(2)), 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// MTU fragmentation (a send may not occupy the wire as one giant frame)

TEST(LinkFragmentationTest, SendAtMtuPlusFramingIsOneFrame) {
  Simulator sim;
  Link link(sim);
  // 1500 MTU + 18 framing: the largest legal single frame must NOT fragment — existing
  // full-size protocol packets (1460 payload + 58 headers + 18 framing) depend on it.
  link.Send(Bytes::Of(1518));
  sim.Run();
  EXPECT_EQ(link.frames_sent(), 1);
}

TEST(LinkFragmentationTest, OversizedSendSplitsIntoMtuBoundedFrames) {
  Simulator sim;
  Link link(sim);
  TimePoint delivered;
  // 4000 B over a 1518 B max frame = 1518 + 1518 + 964.
  link.Send(Bytes::Of(4000), [&] { delivered = sim.Now(); });
  sim.Run();
  EXPECT_EQ(link.frames_sent(), 3);
  EXPECT_EQ(link.bytes_carried(), Bytes::Of(4000));
  // Delivery fires when the last fragment's final bit lands: 4000 B serialized
  // back-to-back at 10 Mbps (3200 us, plus per-fragment rounding) + 50 us propagation.
  EXPECT_GE(delivered, TimePoint::FromMicros(3250));
  EXPECT_LE(delivered, TimePoint::FromMicros(3260));
}

TEST(LinkFragmentationTest, FragmentsCountIndividually) {
  Simulator sim;
  Link link(sim);
  link.Send(Bytes::Of(1519));  // one byte over: two frames
  sim.Run();
  EXPECT_EQ(link.frames_sent(), 2);
  EXPECT_EQ(link.frames_delivered(), 2);
  EXPECT_EQ(link.frames_lost(), 0);
}

// ---------------------------------------------------------------------------
// CSMA/CD backoff determinism

LinkConfig CsmaCd(uint64_t seed) {
  LinkConfig cfg;
  cfg.csma_cd = true;
  cfg.seed = seed;
  return cfg;
}

// Drives the link hard enough that contention is certain, returning the resulting
// collision count and total backoff.
std::pair<int64_t, Duration> DriveContended(Link& link, Simulator& sim) {
  for (int i = 0; i < 400; ++i) {
    link.Send(Bytes::Of(1500));
  }
  sim.Run();
  return {link.collisions(), link.backoff_total()};
}

TEST(LinkCsmaCdTest, IdenticalSeedsGiveIdenticalBackoffSequences) {
  Simulator sim_a;
  Link a(sim_a, CsmaCd(42));
  Simulator sim_b;
  Link b(sim_b, CsmaCd(42));
  auto [collisions_a, backoff_a] = DriveContended(a, sim_a);
  auto [collisions_b, backoff_b] = DriveContended(b, sim_b);
  EXPECT_GT(collisions_a, 0);
  EXPECT_EQ(collisions_a, collisions_b);
  EXPECT_EQ(backoff_a, backoff_b);
  EXPECT_EQ(a.queue_delay().max(), b.queue_delay().max());
  EXPECT_EQ(a.queue_delay().mean(), b.queue_delay().mean());
}

TEST(LinkCsmaCdTest, DifferentSeedsGiveDifferentBackoff) {
  Simulator sim_a;
  Link a(sim_a, CsmaCd(42));
  Simulator sim_b;
  Link b(sim_b, CsmaCd(43));
  auto [collisions_a, backoff_a] = DriveContended(a, sim_a);
  auto [collisions_b, backoff_b] = DriveContended(b, sim_b);
  (void)collisions_a;
  (void)collisions_b;
  EXPECT_NE(backoff_a, backoff_b);
}

TEST(LinkCsmaCdTest, BackoffIsAComponentOfQueueDelay) {
  Simulator sim;
  Link link(sim, CsmaCd(7));
  auto [collisions, backoff] = DriveContended(link, sim);
  ASSERT_GT(collisions, 0);
  EXPECT_GT(backoff, Duration::Zero());
  // Total queueing (in ms, over all frames) must be at least the injected backoff: the
  // backoff shows up inside queue_delay(), not as a separate invisible delay.
  const RunningStats& queued = link.queue_delay();
  EXPECT_GE(queued.mean() * static_cast<double>(queued.count()), backoff.ToMillisF());
}

}  // namespace
}  // namespace tcs
