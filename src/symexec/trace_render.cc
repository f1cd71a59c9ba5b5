#include "src/symexec/trace_render.h"

#include <sstream>

#include "src/netcore/ip.h"

namespace innet::symexec {
namespace {

bool IsAddressField(HeaderField field) {
  return field == HeaderField::kIpSrc || field == HeaderField::kIpDst;
}

std::string FormatConcrete(HeaderField field, uint64_t value) {
  if (IsAddressField(field)) {
    return Ipv4Address(static_cast<uint32_t>(value)).ToString();
  }
  if (field == HeaderField::kProto) {
    switch (value) {
      case kProtoTcp:
        return "tcp";
      case kProtoUdp:
        return "udp";
      case kProtoIcmp:
        return "icmp";
      default:
        break;
    }
  }
  return std::to_string(value);
}

constexpr HeaderField kColumns[] = {HeaderField::kIpSrc,   HeaderField::kIpDst,
                                    HeaderField::kProto,   HeaderField::kSrcPort,
                                    HeaderField::kDstPort, HeaderField::kPayload,
                                    HeaderField::kFirewallTag};

std::string PadTo(std::string text, size_t width) {
  if (text.size() < width) {
    text.append(width - text.size(), ' ');
  }
  return text;
}

}  // namespace

std::string RenderValue(const SymbolicPacket& packet, const SymbolicValue& value,
                        HeaderField field) {
  if (value.is_const) {
    return FormatConcrete(field, value.const_value);
  }
  std::ostringstream out;
  // Name ingress variables after their field (CLI-style, as Figure 2 names
  // them); fresh variables keep their numeric id.
  bool named = false;
  for (int i = 0; i < kNumHeaderFields; ++i) {
    HeaderField f = static_cast<HeaderField>(i);
    if (packet.ingress_var(f) == value.var) {
      out << HeaderFieldName(f) << "0";
      named = true;
      break;
    }
  }
  if (!named) {
    out << "v" << value.var;
  }
  ValueSet values = packet.PossibleValuesOf(value);
  if (!(values == ValueSet::Full())) {
    if (values.IsSingle()) {
      out << "=" << FormatConcrete(field, values.SingleValue());
    } else if (IsAddressField(field) && values.intervals().size() == 1) {
      out << "∈[" << FormatConcrete(field, values.intervals()[0].lo) << ".."
          << FormatConcrete(field, values.intervals()[0].hi) << "]";
    } else {
      out << "∈" << values.ToString();
    }
  }
  return out.str();
}

std::string RenderTrace(const SymbolicPacket& packet) {
  std::ostringstream out;
  constexpr size_t kNodeWidth = 26;
  constexpr size_t kCellWidth = 22;

  out << PadTo("node", kNodeWidth);
  for (HeaderField field : kColumns) {
    out << PadTo(std::string(HeaderFieldName(field)), kCellWidth);
  }
  out << "\n";

  for (int hop = 0; hop < packet.hop_count(); ++hop) {
    out << PadTo(packet.HopName(hop), kNodeWidth);
    for (HeaderField field : kColumns) {
      const FieldState& state = packet.FieldAtHop(field, hop);
      std::string cell = RenderValue(packet, state.value, field);
      // '*' marks a redefinition at this hop (Figure 2 shades these cells).
      if (state.last_def_hop == hop) {
        cell += "*";
      }
      out << PadTo(std::move(cell), kCellWidth);
    }
    out << "\n";
  }
  if (!packet.feasible()) {
    out << "(infeasible path)\n";
  }
  return out.str();
}

}  // namespace innet::symexec
