// Per-packet header overhead models.
//
// RDP, X, and LBX all ran over TCP/IP in the paper's testbed. Average message size across
// the three protocols was just 267 bytes, so the fixed per-packet headers matter; §6.1.2
// evaluates the x-kernel virtual-IP (VIP) scheme, which omits the 20-byte IP header in
// non-routed deployments. Header accounting here reproduces that arithmetic.

#ifndef TCS_SRC_NET_HEADERS_H_
#define TCS_SRC_NET_HEADERS_H_

#include "src/sim/units.h"

namespace tcs {

// Ethernet MAC + FCS on every frame. It does not count against the MTU, and tcpdump byte
// counts (which the paper reports) exclude it, so it participates in wire timing but not
// in protocol byte accounting.
inline constexpr Bytes kEthernetFraming = Bytes::Of(18);

struct HeaderModel {
  Bytes tcp = Bytes::Of(20);
  Bytes ip = Bytes::Of(20);

  // Headers counted by a tcpdump-style tracer (transport + network).
  Bytes CountedPerPacket() const { return tcp + ip; }
  // Everything that occupies the wire.
  Bytes WirePerPacket() const { return tcp + ip + kEthernetFraming; }

  static HeaderModel TcpIp() { return HeaderModel{}; }
};

}  // namespace tcs

#endif  // TCS_SRC_NET_HEADERS_H_
