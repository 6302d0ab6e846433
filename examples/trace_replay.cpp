// Trace record & replay: capture an interaction session to a text trace, then replay it
// over any protocol and client device to see what the user would have felt.
//
//   $ ./trace_replay                      # generate, save, and replay a demo trace
//   $ ./trace_replay mysession.trace rdp  # replay your own trace over a protocol
//
// The trace format is documented in src/workload/script_io.h — it is the methodology of
// the paper's §6 workload (a fixed, replayable set of user interactions) exposed as a
// first-class artifact.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/client/thin_client.h"
#include "src/proto/protocol_factory.h"
#include "src/proto/vnc_protocol.h"
#include "src/util/table.h"
#include "src/workload/script_io.h"

namespace {

bool ParseKind(const char* word, tcs::ProtocolKind* kind) {
  using namespace tcs;
  if (std::strcmp(word, "rdp") == 0) {
    *kind = ProtocolKind::kRdp;
  } else if (std::strcmp(word, "x") == 0) {
    *kind = ProtocolKind::kX;
  } else if (std::strcmp(word, "lbx") == 0) {
    *kind = ProtocolKind::kLbx;
  } else if (std::strcmp(word, "slim") == 0) {
    *kind = ProtocolKind::kSlim;
  } else if (std::strcmp(word, "vnc") == 0) {
    *kind = ProtocolKind::kVnc;
  } else {
    return false;
  }
  return true;
}

void ReplayOver(const tcs::AppScript& script, tcs::ProtocolKind kind,
                tcs::TextTable& table) {
  using namespace tcs;
  Simulator sim;
  Link link(sim);
  MessageSender display(link, HeaderModel::TcpIp());
  MessageSender input(link, HeaderModel::TcpIp());
  ProtoTap tap(Duration::Seconds(1));
  auto protocol = MakeProtocol(kind, sim, display, input, &tap, Rng(3));
  script.Replay(sim, *protocol);
  sim.RunUntil(TimePoint::Zero() + script.TotalDuration());
  if (auto* vnc = dynamic_cast<VncProtocol*>(protocol.get())) {
    vnc->StopClientPull();
  }
  protocol->Flush();
  sim.Run();

  // What would the frames cost on each client device?
  double avg_payload =
      tap.messages(Channel::kDisplay) > 0
          ? static_cast<double>(tap.payload_bytes(Channel::kDisplay).count()) /
                static_cast<double>(tap.messages(Channel::kDisplay))
          : 0.0;
  ThinClientDevice pc(ThinClientConfig::DesktopPc());
  ThinClientDevice pda(ThinClientConfig::Handheld());
  Bytes avg = Bytes::Of(static_cast<int64_t>(avg_payload));
  table.AddRow({protocol->name(),
                TextTable::Num(tap.total_counted_bytes().count()),
                TextTable::Num(tap.total_messages()),
                TextTable::Fixed(pc.DecodeDelay(kind, avg).ToMillisF(), 2),
                TextTable::Fixed(pda.DecodeDelay(kind, avg).ToMillisF(), 2)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcs;

  AppScript script = AppScript::WordProcessor(Rng(2026), 150);
  if (argc >= 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    auto parsed = ParseScript(buffer.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "parse error: %s\n", error.c_str());
      return 1;
    }
    script = std::move(*parsed);
    std::printf("loaded trace '%s': %zu steps, %zu input events, %zu draws\n",
                script.name().c_str(), script.steps().size(), script.TotalInputEvents(),
                script.TotalDrawCommands());
  } else {
    const char* path = "demo_session.trace";
    std::ofstream out(path);
    out << SerializeScript(script);
    std::printf("recorded a demo session to %s (%zu steps); replaying it:\n", path,
                script.steps().size());
  }

  TextTable table({"protocol", "wire bytes", "messages", "avg frame on PC (ms)",
                   "avg frame on handheld (ms)"});
  if (argc >= 3) {
    ProtocolKind kind;
    if (!ParseKind(argv[2], &kind)) {
      std::fprintf(stderr, "unknown protocol '%s' (rdp|x|lbx|slim|vnc)\n", argv[2]);
      return 1;
    }
    ReplayOver(script, kind, table);
  } else {
    for (ProtocolKind kind : {ProtocolKind::kRdp, ProtocolKind::kX, ProtocolKind::kLbx,
                              ProtocolKind::kSlim, ProtocolKind::kVnc}) {
      ReplayOver(script, kind, table);
    }
  }
  std::printf("\n%s", table.Render().c_str());
  return 0;
}
