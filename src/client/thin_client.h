// The user's machine (§3.1.4): "In remote-access environments like TSE and X Windows,
// the video subsystem at the server is irrelevant and the GUI is instead constrained by
// network bandwidth, the efficiency of the network protocol, and the video hardware at
// the client."
//
// A ThinClientDevice turns a delivered display message into pixels: protocol decode
// (decompression, order replay) on the client CPU, then the blit through the client's
// video subsystem. Presets model the era's device classes, from a desktop PC to a
// wireless handheld — the converging "PDAs, cellular phones, pagers" of the paper's
// introduction.

#ifndef TCS_SRC_CLIENT_THIN_CLIENT_H_
#define TCS_SRC_CLIENT_THIN_CLIENT_H_

#include <string>

#include "src/proto/protocol_kind.h"
#include "src/sim/time.h"
#include "src/sim/units.h"

namespace tcs {

struct ThinClientConfig {
  std::string name = "pc";
  // Relative CPU speed (1.0 = the 100 MHz-class reference).
  double cpu_speed = 1.0;
  // Video subsystem throughput: decoded bytes blitted per second.
  BitsPerSecond video_throughput = BitsPerSecond::Mbps(320);  // ~40 MB/s PCI-era blit
  // Fixed per-message handling cost (interrupt, protocol dispatch) at speed 1.0.
  Duration per_message_cost = Duration::Micros(120);

  static ThinClientConfig DesktopPc();   // fast CPU, fast blitter
  static ThinClientConfig WinTerm();     // appliance: slow CPU, adequate blitter
  static ThinClientConfig Handheld();    // wireless PDA: slow everything
};

class ThinClientDevice {
 public:
  explicit ThinClientDevice(ThinClientConfig config = {});

  // Time from "last bit of the display message arrived" to "pixels on glass" for a
  // message of `payload` bytes under `protocol`. Deterministic.
  Duration DecodeDelay(ProtocolKind protocol, Bytes payload) const;


 private:
  ThinClientConfig config_;
};

}  // namespace tcs

#endif  // TCS_SRC_CLIENT_THIN_CLIENT_H_
