#include "src/click/elements_switching.h"

#include <cctype>
#include <cstdlib>

namespace innet::click {
namespace {

using symexec::SymbolicValue;
using symexec::ValueSet;

bool ParseSmallInt(const std::string& text, int lo, int hi, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool Paint::Configure(const std::string& args, std::string* error) {
  int color = 0;
  if (!ParseSmallInt(Trimmed(args), 0, 255, &color)) {
    *error = "Paint: COLOR must be 0..255, got '" + args + "'";
    return false;
  }
  color_ = static_cast<uint8_t>(color);
  return true;
}

void Paint::Push(int /*port*/, Packet& packet) {
  packet.set_paint(color_);
  ForwardTo(0, packet);
}

void Paint::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                  Transitions* out) {
  SymbolicPacket next = packet;
  next.SetConst(HeaderField::kPaint, color_);
  out->push_back({0, std::move(next)});
}

bool PaintSwitch::Configure(const std::string& args, std::string* error) {
  int n = 0;
  if (!ParseSmallInt(Trimmed(args), 1, 256, &n)) {
    *error = "PaintSwitch: needs an output count 1..256";
    return false;
  }
  SetPorts(1, n);
  return true;
}

void PaintSwitch::Push(int /*port*/, Packet& packet) {
  if (static_cast<int>(packet.paint()) >= n_outputs()) {
    CountDrop();
    return;
  }
  ForwardTo(packet.paint(), packet);
}

void PaintSwitch::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                        Transitions* out) {
  for (int i = 0; i < n_outputs(); ++i) {
    SymbolicPacket branch = packet;
    if (branch.Constrain(HeaderField::kPaint, ValueSet::Single(static_cast<uint64_t>(i)))) {
      out->push_back({i, std::move(branch)});
    }
  }
}

bool RoundRobinSwitch::Configure(const std::string& args, std::string* error) {
  int n = 0;
  if (!ParseSmallInt(Trimmed(args), 1, 256, &n)) {
    *error = "RoundRobinSwitch: needs an output count 1..256";
    return false;
  }
  SetPorts(1, n);
  return true;
}

void RoundRobinSwitch::Push(int /*port*/, Packet& packet) {
  int out = next_;
  next_ = next_ + 1 == n_outputs() ? 0 : next_ + 1;
  ForwardTo(out, packet);
}

void RoundRobinSwitch::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                             Transitions* out) {
  // The rotation is state the checker does not model: any output is
  // possible, so every branch stays live (a sound over-approximation).
  for (int i = 0; i < n_outputs(); ++i) {
    out->push_back({i, packet});
  }
}

bool HashSwitch::Configure(const std::string& args, std::string* error) {
  int n = 0;
  if (!ParseSmallInt(Trimmed(args), 1, 256, &n)) {
    *error = "HashSwitch: needs an output count 1..256";
    return false;
  }
  SetPorts(1, n);
  return true;
}

void HashSwitch::Push(int /*port*/, Packet& packet) {
  ForwardTo(static_cast<int>(packet.FlowKey() % static_cast<uint64_t>(n_outputs())), packet);
}

void HashSwitch::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                       Transitions* out) {
  // Flow hashes are not modeled: every output stays live.
  for (int i = 0; i < n_outputs(); ++i) {
    out->push_back({i, packet});
  }
}

bool RandomSample::Configure(const std::string& args, std::string* error) {
  char* end = nullptr;
  double p = std::strtod(args.c_str(), &end);
  std::string rest = end != nullptr ? Trimmed(end) : "";
  if (args.empty() || !rest.empty() || p < 0.0 || p > 1.0) {
    *error = "RandomSample: probability must be in [0, 1], got '" + args + "'";
    return false;
  }
  probability_ = p;
  return true;
}

void RandomSample::Push(int /*port*/, Packet& packet) {
  // xorshift64*
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  double u = static_cast<double>((state_ * 0x2545F4914F6CDD1DULL) >> 11) * 0x1.0p-53;
  ForwardTo(u < probability_ ? 0 : 1, packet);
}

void RandomSample::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  // The draw is not modeled: both outputs stay live.
  out->push_back({0, packet});
  out->push_back({1, packet});
}

bool AddressDemux::Configure(const std::string& args, std::string* error) {
  std::string current;
  auto flush = [&]() -> bool {
    std::string addr_text = Trimmed(current);
    current.clear();
    if (addr_text.empty()) {
      return true;
    }
    auto addr = Ipv4Address::Parse(addr_text);
    if (!addr) {
      *error = "AddressDemux: bad address '" + addr_text + "'";
      return false;
    }
    // A repeated address keeps its first output, as the first-match model does.
    table_.emplace(addr->value(), static_cast<int>(patterns_.size()));
    patterns_.push_back(FlowSpec::MustParse("dst host " + addr->ToString()));
    return true;
  };
  for (char c : args) {
    if (c == ',') {
      if (!flush()) {
        return false;
      }
    } else {
      current.push_back(c);
    }
  }
  if (!flush()) {
    return false;
  }
  if (patterns_.empty()) {
    *error = "AddressDemux: needs at least one address";
    return false;
  }
  SetPorts(1, static_cast<int>(patterns_.size()));
  return true;
}

void AddressDemux::Push(int /*port*/, Packet& packet) {
  auto it = table_.find(packet.ip_dst().value());
  if (it == table_.end()) {
    CountDrop();
    return;
  }
  ForwardTo(it->second, packet);
}

void AddressDemux::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  symexec::EmitClassifierBranches(ctx, packet, patterns_, out);
}

bool SetTTL::Configure(const std::string& args, std::string* error) {
  int ttl = 0;
  if (!ParseSmallInt(Trimmed(args), 1, 255, &ttl)) {
    *error = "SetTTL: TTL must be 1..255";
    return false;
  }
  ttl_ = static_cast<uint8_t>(ttl);
  return true;
}

void SetTTL::Push(int /*port*/, Packet& packet) {
  packet.set_ttl(ttl_);
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void SetTTL::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                   Transitions* out) {
  SymbolicPacket next = packet;
  next.SetConst(HeaderField::kTtl, ttl_);
  out->push_back({0, std::move(next)});
}

void ICMPPingResponder::Push(int /*port*/, Packet& packet) {
  if (packet.protocol() != kProtoIcmp) {
    CountDrop();
    return;
  }
  ++echo_count_;
  Packet reply = Packet::MakeIcmpEcho(packet.ip_dst(), packet.ip_src(), packet.src_port(),
                                      packet.dst_port(), /*is_reply=*/true);
  reply.set_timestamp_ns(packet.timestamp_ns());
  ForwardTo(0, reply);
}

void ICMPPingResponder::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                              Transitions* out) {
  SymbolicPacket next = packet;
  if (!next.Constrain(HeaderField::kProto, ValueSet::Single(kProtoIcmp))) {
    return;
  }
  SymbolicValue old_src = next.value(HeaderField::kIpSrc);
  SymbolicValue old_dst = next.value(HeaderField::kIpDst);
  next.SetValue(HeaderField::kIpSrc, old_dst);
  next.SetValue(HeaderField::kIpDst, old_src);
  out->push_back({0, std::move(next)});
}

bool ExplicitProxy::Configure(const std::string& args, std::string* error) {
  std::string text = Trimmed(args);
  const std::string prefix = "SELF";
  if (text.compare(0, prefix.size(), prefix) != 0) {
    *error = "ExplicitProxy: expected 'SELF a.b.c.d'";
    return false;
  }
  auto addr = Ipv4Address::Parse(Trimmed(text.substr(prefix.size())));
  if (!addr) {
    *error = "ExplicitProxy: bad SELF address";
    return false;
  }
  self_ = *addr;
  return true;
}

void ExplicitProxy::Push(int /*port*/, Packet& packet) {
  // Parse "CONNECT a.b.c.d:port" from the payload; that is the fetch target.
  std::string_view payload = packet.PayloadView();
  const std::string_view verb = "CONNECT ";
  if (payload.substr(0, verb.size()) != verb) {
    ++malformed_;
    CountDrop();
    return;
  }
  std::string_view rest = payload.substr(verb.size());
  size_t colon = rest.find(':');
  if (colon == std::string_view::npos) {
    ++malformed_;
    CountDrop();
    return;
  }
  auto target = Ipv4Address::Parse(rest.substr(0, colon));
  uint32_t port = 0;
  size_t i = colon + 1;
  while (i < rest.size() && std::isdigit(static_cast<unsigned char>(rest[i])) &&
         port <= 65535) {
    port = port * 10 + static_cast<uint32_t>(rest[i] - '0');
    ++i;
  }
  if (!target || port == 0 || port > 65535) {
    ++malformed_;
    CountDrop();
    return;
  }
  packet.set_ip_src(self_);
  packet.set_ip_dst(*target);
  packet.set_dst_port(static_cast<uint16_t>(port));
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void ExplicitProxy::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                          Transitions* out) {
  // The proxy fetches as itself; the target comes from the request payload
  // — a fresh unknown, decided at runtime.
  SymbolicPacket next = packet;
  next.SetConst(HeaderField::kIpSrc, self_.value());
  next.SetFresh(HeaderField::kIpDst, ctx->vars);
  next.SetFresh(HeaderField::kDstPort, ctx->vars);
  out->push_back({0, std::move(next)});
}

}  // namespace innet::click
