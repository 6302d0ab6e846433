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
#include <fstream>
#include <optional>
#include <sstream>

#include "src/client/thin_client.h"
#include "src/proto/protocol_pipeline.h"
#include "src/util/table.h"
#include "src/workload/script_io.h"

namespace {

void ReplayOver(const tcs::AppScript& script, tcs::ProtocolKind kind,
                tcs::TextTable& table) {
  using namespace tcs;
  ProtocolHarness harness(kind, 3);
  script.Replay(harness.sim, harness.protocol());
  harness.sim.RunUntil(TimePoint::Zero() + script.TotalDuration());
  harness.Drain();
  const ProtoTap& tap = harness.tap;

  // What would the frames cost on each client device?
  double avg_payload =
      tap.messages(Channel::kDisplay) > 0
          ? static_cast<double>(tap.payload_bytes(Channel::kDisplay).count()) /
                static_cast<double>(tap.messages(Channel::kDisplay))
          : 0.0;
  ThinClientDevice pc(ThinClientConfig::DesktopPc());
  ThinClientDevice pda(ThinClientConfig::Handheld());
  Bytes avg = Bytes::Of(static_cast<int64_t>(avg_payload));
  table.AddRow({ProtocolName(kind),
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
    std::optional<ProtocolKind> kind = ProtocolFromWord(argv[2]);
    if (!kind) {
      std::fprintf(stderr, "unknown protocol '%s' (rdp|x|lbx|slim|vnc)\n", argv[2]);
      return 1;
    }
    ReplayOver(script, *kind, table);
  } else {
    for (const ProtocolNames& protocol : kProtocols) {
      ReplayOver(script, protocol.kind, table);
    }
  }
  std::printf("\n%s", table.Render().c_str());
  return 0;
}
