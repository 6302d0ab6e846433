// Identifier for the remote-display protocols this framework models, and the one table
// of their command-line words and display names.

#ifndef TCS_SRC_PROTO_PROTOCOL_KIND_H_
#define TCS_SRC_PROTO_PROTOCOL_KIND_H_

#include <cstddef>
#include <optional>
#include <string_view>

namespace tcs {

enum class ProtocolKind {
  kRdp,   // TSE's Remote Display Protocol
  kX,     // the X Window System core protocol
  kLbx,   // Low Bandwidth X proxy
  kSlim,  // Sun Ray / SLIM (related work, §7)
  kVnc,   // RFB / Virtual Network Computing (related work, §7)
};

struct ProtocolNames {
  ProtocolKind kind;
  const char* word;  // the `--protocol=` value
  const char* name;  // what reports and tables print
};

// In ProtocolKind order.
inline constexpr ProtocolNames kProtocols[] = {
    {ProtocolKind::kRdp, "rdp", "RDP"},    {ProtocolKind::kX, "x", "X"},
    {ProtocolKind::kLbx, "lbx", "LBX"},    {ProtocolKind::kSlim, "slim", "SLIM"},
    {ProtocolKind::kVnc, "vnc", "VNC"},
};

constexpr const ProtocolNames& NamesOf(ProtocolKind kind) {
  return kProtocols[static_cast<size_t>(kind)];
}
static_assert(NamesOf(ProtocolKind::kRdp).kind == ProtocolKind::kRdp &&
              NamesOf(ProtocolKind::kX).kind == ProtocolKind::kX &&
              NamesOf(ProtocolKind::kLbx).kind == ProtocolKind::kLbx &&
              NamesOf(ProtocolKind::kSlim).kind == ProtocolKind::kSlim &&
              NamesOf(ProtocolKind::kVnc).kind == ProtocolKind::kVnc);

constexpr const char* ProtocolWord(ProtocolKind kind) { return NamesOf(kind).word; }
constexpr const char* ProtocolName(ProtocolKind kind) { return NamesOf(kind).name; }

// The kind whose command-line word is `word`; nullopt for any other string.
constexpr std::optional<ProtocolKind> ProtocolFromWord(std::string_view word) {
  for (const ProtocolNames& p : kProtocols) {
    if (word == p.word) {
      return p.kind;
    }
  }
  return std::nullopt;
}

}  // namespace tcs

#endif  // TCS_SRC_PROTO_PROTOCOL_KIND_H_
