#include "src/net/endpoint.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

TEST(HeaderModelTest, TcpIpCounts40) {
  HeaderModel h = HeaderModel::TcpIp();
  EXPECT_EQ(h.CountedPerPacket(), Bytes::Of(40));
  EXPECT_EQ(h.WirePerPacket(), Bytes::Of(58));
}

TEST(MessageSenderTest, SmallMessageIsOnePacket) {
  Simulator sim;
  Link link(sim);
  MessageSender sender(link, HeaderModel::TcpIp());
  sender.SendMessage(Bytes::Of(100));
  EXPECT_EQ(sender.messages_sent(), 1);
  EXPECT_EQ(sender.packets_sent(), 1);
  EXPECT_EQ(sender.payload_bytes(), Bytes::Of(100));
  EXPECT_EQ(sender.counted_bytes(), Bytes::Of(140));
}

TEST(MessageSenderTest, LargeMessageSegments) {
  Simulator sim;
  Link link(sim);  // MTU 1500, max payload 1460 with TCP/IP
  MessageSender sender(link, HeaderModel::TcpIp());
  sender.SendMessage(Bytes::Of(4000));
  EXPECT_EQ(sender.packets_sent(), 3);  // 1460+1460+1080
  EXPECT_EQ(sender.counted_bytes(), Bytes::Of(4000 + 3 * 40));
}

TEST(MessageSenderTest, PacketsForBoundaries) {
  Simulator sim;
  Link link(sim);
  MessageSender sender(link, HeaderModel::TcpIp());
  EXPECT_EQ(sender.PacketsFor(Bytes::Of(1460)), 1);
  EXPECT_EQ(sender.PacketsFor(Bytes::Of(1461)), 2);
  EXPECT_EQ(sender.PacketsFor(Bytes::Of(2920)), 2);
  EXPECT_EQ(sender.PacketsFor(Bytes::Zero()), 1);
}

TEST(MessageSenderTest, DeliveryFiresAfterLastSegment) {
  Simulator sim;
  Link link(sim);
  MessageSender sender(link, HeaderModel::TcpIp());
  TimePoint delivered;
  sender.SendMessage(Bytes::Of(4000), [&] { delivered = sim.Now(); });
  sim.Run();
  // Three frames back to back on a 10 Mbps link, then propagation. Wire sizes:
  // 1460+58, 1460+58, 1080+58 = 1518,1518,1138 bytes; serialization rounds up per frame.
  int64_t serialization = 1215 + 1215 + 911;  // ceil(bytes*8/10) us each at 10 Mbps
  EXPECT_EQ(delivered.ToMicros(), serialization + 50);
}

TEST(MessageSenderTest, EmptyMessageStillCostsAFrame) {
  Simulator sim;
  Link link(sim);
  MessageSender sender(link, HeaderModel::TcpIp());
  sender.SendMessage(Bytes::Zero());
  EXPECT_EQ(sender.packets_sent(), 1);
  EXPECT_EQ(sender.counted_bytes(), Bytes::Of(40));
}

}  // namespace
}  // namespace tcs
