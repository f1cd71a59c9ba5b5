#include "src/click/elements.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/click/profiler.h"

namespace innet::click {
namespace {

using symexec::ElseBranch;
using symexec::EmitFlowSpecBranches;
using symexec::SymbolicValue;
using symexec::ValueSet;

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

// Splits on commas that are not nested in parentheses; trims each piece.
std::vector<std::string> SplitArgs(const std::string& args) {
  std::vector<std::string> parts;
  int depth = 0;
  std::string current;
  for (char c : args) {
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    }
    if (c == ',' && depth == 0) {
      parts.push_back(Trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  std::string last = Trim(current);
  if (!last.empty() || !parts.empty()) {
    parts.push_back(last);
  }
  return parts;
}

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> words;
  std::istringstream in(text);
  std::string w;
  while (in >> w) {
    words.push_back(w);
  }
  return words;
}

bool ParsePort(const std::string& s, uint16_t* out) {
  if (s.empty()) {
    return false;
  }
  uint32_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint32_t>(c - '0');
    if (v > 65535) {
      return false;
    }
  }
  *out = static_cast<uint16_t>(v);
  return true;
}

}  // namespace

// --- Sources and sinks ----------------------------------------------------------

void FromNetfront::Push(int /*port*/, Packet& packet) { ForwardTo(0, packet); }

void FromNetfront::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  out->push_back({0, packet});
}

void ToNetfront::Push(int /*port*/, Packet& packet) {
  ++packet_count_;
  byte_count_ += packet.length();
  if (profiler() != nullptr) {
    // The walk ends in egress, not a drop; a carried in-band stack is
    // completed into a delivered postcard here, at the graph boundary.
    profiler()->NoteEgress(packet, clock() != nullptr ? clock()->now() : 0);
  }
  if (handler_) {
    handler_(packet);
  }
}

void ToNetfront::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                       Transitions* out) {
  out->push_back({symexec::kPortDeliver, packet});
}

void Discard::Push(int /*port*/, Packet& /*packet*/) { ++packet_count_; }

void Discard::Apply(ModelContext* /*ctx*/, const SymbolicPacket& /*packet*/, int /*in_port*/,
                    Transitions* /*out*/) {}

// --- Pass-through utilities -------------------------------------------------------

void Counter::Push(int /*port*/, Packet& packet) {
  ++packet_count_;
  byte_count_ += packet.length();
  ForwardTo(0, packet);
}

void Counter::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                    Transitions* out) {
  out->push_back({0, packet});
}

bool Tee::Configure(const std::string& args, std::string* error) {
  int n = 2;
  std::string trimmed = Trim(args);
  if (!trimmed.empty()) {
    try {
      n = std::stoi(trimmed);
    } catch (...) {
      *error = "Tee: bad output count '" + trimmed + "'";
      return false;
    }
    if (n < 1 || n > 256) {
      *error = "Tee: output count out of range";
      return false;
    }
  }
  SetPorts(1, n);
  return true;
}

void Tee::Push(int /*port*/, Packet& packet) {
  for (int i = 1; i < n_outputs(); ++i) {
    Packet copy = packet;
    ForwardTo(i, copy);
  }
  ForwardTo(0, packet);
}

void Tee::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                Transitions* out) {
  for (int i = 0; i < n_outputs(); ++i) {
    out->push_back({i, packet});
  }
}

// --- Classification ---------------------------------------------------------------

bool IPFilter::Configure(const std::string& args, std::string* error) {
  for (const std::string& rule_text : SplitArgs(args)) {
    if (rule_text.empty()) {
      continue;
    }
    size_t space = rule_text.find(' ');
    std::string verb = rule_text.substr(0, space);
    std::string rest = space == std::string::npos ? "" : Trim(rule_text.substr(space + 1));
    bool allow;
    if (verb == "allow" || verb == "accept") {
      allow = true;
    } else if (verb == "deny" || verb == "drop") {
      allow = false;
    } else {
      *error = "IPFilter: rule must start with allow/deny, got '" + rule_text + "'";
      return false;
    }
    FlowSpec spec;
    if (rest != "all" && !rest.empty()) {
      auto parsed = FlowSpec::Parse(rest);
      if (!parsed) {
        *error = "IPFilter: bad flow spec '" + rest + "'";
        return false;
      }
      spec = *parsed;
    }
    rules_.push_back({allow, std::move(spec)});
  }
  if (rules_.empty()) {
    *error = "IPFilter: needs at least one rule";
    return false;
  }
  return true;
}

void IPFilter::Push(int /*port*/, Packet& packet) {
  for (const Rule& rule : rules_) {
    if (rule.spec.Matches(packet)) {
      if (rule.allow) {
        ForwardTo(0, packet);
      } else {
        CountDrop();
      }
      return;
    }
  }
  CountDrop();  // Click's IPFilter drops unmatched packets.
}

void IPFilter::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                     Transitions* out) {
  SymbolicPacket remaining = packet;
  for (const Rule& rule : rules_) {
    if (!remaining.feasible()) {
      break;
    }
    if (rule.allow) {
      EmitFlowSpecBranches(ctx, remaining, rule.spec, 0, out);
    }
    remaining = ElseBranch(remaining, rule.spec);
  }
}

bool IPClassifier::Configure(const std::string& args, std::string* error) {
  for (const std::string& pattern_text : SplitArgs(args)) {
    if (pattern_text == "-") {
      patterns_.push_back(FlowSpec());  // wildcard
      continue;
    }
    auto parsed = FlowSpec::Parse(pattern_text);
    if (!parsed) {
      *error = std::string(class_name()) + ": bad pattern '" + pattern_text + "'";
      return false;
    }
    patterns_.push_back(*parsed);
  }
  if (patterns_.empty()) {
    *error = std::string(class_name()) + ": needs at least one pattern";
    return false;
  }
  SetPorts(1, static_cast<int>(patterns_.size()));
  return true;
}

void IPClassifier::Push(int /*port*/, Packet& packet) {
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (patterns_[i].Matches(packet)) {
      ForwardTo(static_cast<int>(i), packet);
      return;
    }
  }
  CountDrop();
}

void IPClassifier::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  symexec::EmitClassifierBranches(ctx, packet, patterns_, out);
}

// --- Header rewriting ---------------------------------------------------------------

bool IPRewriter::Configure(const std::string& args, std::string* error) {
  std::vector<std::string> words = SplitWords(args);
  if (words.empty() || words[0] != "pattern") {
    *error = "IPRewriter: expected 'pattern SADDR SPORT DADDR DPORT ...'";
    return false;
  }
  if (words.size() < 5) {
    *error = "IPRewriter: pattern needs 4 fields";
    return false;
  }
  auto parse_addr = [&](const std::string& w, std::optional<Ipv4Address>* out) {
    if (w == "-") {
      return true;
    }
    auto addr = Ipv4Address::Parse(w);
    if (!addr) {
      return false;
    }
    *out = *addr;
    return true;
  };
  auto parse_port_field = [&](const std::string& w, std::optional<uint16_t>* out) {
    if (w == "-") {
      return true;
    }
    uint16_t p = 0;
    if (!ParsePort(w, &p)) {
      return false;
    }
    *out = p;
    return true;
  };
  if (!parse_addr(words[1], &new_src_) || !parse_port_field(words[2], &new_sport_) ||
      !parse_addr(words[3], &new_dst_) || !parse_port_field(words[4], &new_dport_)) {
    *error = "IPRewriter: bad pattern field in '" + args + "'";
    return false;
  }
  return true;  // trailing output-port numbers are accepted and ignored
}

void IPRewriter::Push(int /*port*/, Packet& packet) {
  if (new_src_) {
    packet.set_ip_src(*new_src_);
  }
  if (new_dst_) {
    packet.set_ip_dst(*new_dst_);
  }
  if (new_sport_) {
    packet.set_src_port(*new_sport_);
  }
  if (new_dport_) {
    packet.set_dst_port(*new_dport_);
  }
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void IPRewriter::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                       Transitions* out) {
  SymbolicPacket next = packet;
  if (new_src_) {
    next.SetConst(HeaderField::kIpSrc, new_src_->value());
  }
  if (new_dst_) {
    next.SetConst(HeaderField::kIpDst, new_dst_->value());
  }
  if (new_sport_) {
    next.SetConst(HeaderField::kSrcPort, *new_sport_);
  }
  if (new_dport_) {
    next.SetConst(HeaderField::kDstPort, *new_dport_);
  }
  out->push_back({0, std::move(next)});
}

bool SetIPSrc::Configure(const std::string& args, std::string* error) {
  auto addr = Ipv4Address::Parse(Trim(args));
  if (!addr) {
    *error = "SetIPSrc: bad address '" + args + "'";
    return false;
  }
  addr_ = *addr;
  return true;
}

void SetIPSrc::Push(int /*port*/, Packet& packet) {
  packet.set_ip_src(addr_);
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void SetIPSrc::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                     Transitions* out) {
  SymbolicPacket next = packet;
  next.SetConst(HeaderField::kIpSrc, addr_.value());
  out->push_back({0, std::move(next)});
}

bool SetIPDst::Configure(const std::string& args, std::string* error) {
  auto addr = Ipv4Address::Parse(Trim(args));
  if (!addr) {
    *error = "SetIPDst: bad address '" + args + "'";
    return false;
  }
  addr_ = *addr;
  return true;
}

void SetIPDst::Push(int /*port*/, Packet& packet) {
  packet.set_ip_dst(addr_);
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void SetIPDst::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                     Transitions* out) {
  SymbolicPacket next = packet;
  next.SetConst(HeaderField::kIpDst, addr_.value());
  out->push_back({0, std::move(next)});
}

void DecIPTTL::Push(int /*port*/, Packet& packet) {
  if (!packet.DecrementTtl()) {
    CountDrop();
    return;
  }
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void DecIPTTL::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                     Transitions* out) {
  SymbolicPacket next = packet;
  // We do not model arithmetic; a decrement is a redefinition, which is all
  // invariant checking needs.
  next.SetFresh(HeaderField::kTtl, ctx->vars);
  out->push_back({0, std::move(next)});
}

void CheckIPHeader::Push(int /*port*/, Packet& packet) {
  if (!packet.VerifyIpChecksum()) {
    CountDrop();
    return;
  }
  ForwardTo(0, packet);
}

void CheckIPHeader::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                          Transitions* out) {
  out->push_back({0, packet});
}

// --- Queueing / batching --------------------------------------------------------------

bool TimedUnqueue::Configure(const std::string& args, std::string* error) {
  std::vector<std::string> parts = SplitArgs(args);
  if (parts.empty() || parts[0].empty()) {
    *error = "TimedUnqueue: needs INTERVAL [BURST]";
    return false;
  }
  try {
    interval_sec_ = std::stod(parts[0]);
  } catch (...) {
    *error = "TimedUnqueue: bad interval '" + parts[0] + "'";
    return false;
  }
  if (parts.size() > 1 && !parts[1].empty()) {
    try {
      burst_ = std::stoi(parts[1]);
    } catch (...) {
      *error = "TimedUnqueue: bad burst '" + parts[1] + "'";
      return false;
    }
  }
  if (interval_sec_ <= 0 || burst_ < 1) {
    *error = "TimedUnqueue: interval and burst must be positive";
    return false;
  }
  return true;
}

void TimedUnqueue::Initialize(ElementContext* context) {
  Element::Initialize(context);
  timer_armed_ = false;
}

void TimedUnqueue::Push(int /*port*/, Packet& packet) {
  if (clock() == nullptr) {
    ForwardTo(0, packet);  // no clock: degrade to pass-through
    return;
  }
  queue_.push_back(packet);
  if (packet.int_active()) {
    // The queued copy carries the in-band stack onward; park the original so
    // the injecting walk does not close it as a drop when it unwinds.
    packet.set_int_parked(true);
  }
  if (!timer_armed_) {
    timer_armed_ = true;
    clock()->ScheduleAfter(static_cast<sim::TimeNs>(interval_sec_ * 1e9), [this] { Fire(); });
  }
}

void TimedUnqueue::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  // A batcher delays but never rewrites, so header and payload invariants
  // hold across it.
  out->push_back({0, packet});
}

void TimedUnqueue::Fire() {
  for (int i = 0; i < burst_ && !queue_.empty(); ++i) {
    Packet packet = std::move(queue_.front());
    queue_.pop_front();
    packet.set_int_parked(false);
    ForwardTo(0, packet);
    if (profiler() != nullptr) {
      // A deferred release runs outside any walk, so the drop-side postcard
      // (for packets that did not reach a sink downstream) is emitted here.
      profiler()->FinishWalkInt(packet, clock()->now());
    }
  }
  // Once started, the release timer ticks periodically (Click's TimedUnqueue
  // behaviour): every INTERVAL the queued batch goes out, so no packet waits
  // more than one interval.
  clock()->ScheduleAfter(static_cast<sim::TimeNs>(interval_sec_ * 1e9), [this] { Fire(); });
}

bool Queue::Configure(const std::string& args, std::string* error) {
  std::string trimmed = Trim(args);
  if (!trimmed.empty()) {
    try {
      capacity_ = static_cast<size_t>(std::stoul(trimmed));
    } catch (...) {
      *error = "Queue: bad capacity '" + trimmed + "'";
      return false;
    }
  }
  return true;
}

void Queue::Push(int /*port*/, Packet& packet) {
  // Push-to-push adapter: counts occupancy against the configured capacity so
  // bursty upstreams see tail drop, then forwards immediately.
  if (depth_ >= capacity_) {
    CountDrop();
    return;
  }
  ++depth_;
  ForwardTo(0, packet);
  --depth_;
}

void Queue::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                  Transitions* out) {
  out->push_back({0, packet});
}

// --- Stateful / security -----------------------------------------------------------

bool ChangeEnforcer::Configure(const std::string& args, std::string* error) {
  for (const std::string& part : SplitArgs(args)) {
    if (part.empty()) {
      continue;
    }
    std::vector<std::string> words = SplitWords(part);
    if (words.empty()) {
      continue;
    }
    if (words[0] == "ALLOW") {
      for (size_t i = 1; i < words.size(); ++i) {
        auto addr = Ipv4Address::Parse(words[i]);
        if (!addr) {
          *error = "ChangeEnforcer: bad whitelist address '" + words[i] + "'";
          return false;
        }
        whitelist_ = whitelist_.Union(ValueSet::Single(addr->value()));
      }
    } else if (words[0] == "TIMEOUT" && words.size() == 2) {
      try {
        timeout_ns_ = static_cast<uint64_t>(std::stod(words[1]) * 1e9);
      } catch (...) {
        *error = "ChangeEnforcer: bad timeout '" + words[1] + "'";
        return false;
      }
    } else {
      *error = "ChangeEnforcer: unknown directive '" + part + "'";
      return false;
    }
  }
  return true;
}

void ChangeEnforcer::Push(int port, Packet& packet) {
  uint64_t now = clock() != nullptr ? clock()->now() : packet.timestamp_ns();
  if (port == 0) {
    // Inbound: remember the outside peer; it is implicitly authorized to
    // receive our responses (the paper's stateful-firewall analogy, §4.4).
    peers_[packet.ip_src().value()] = now;
    ForwardTo(0, packet);
    return;
  }
  // Outbound: enforce default-off.
  uint32_t dst = packet.ip_dst().value();
  if (whitelist_.Contains(dst)) {
    ForwardTo(1, packet);
    return;
  }
  auto it = peers_.find(dst);
  if (it != peers_.end() && now - it->second <= timeout_ns_) {
    ForwardTo(1, packet);
    return;
  }
  ++blocked_;
  CountDrop();
}

void ChangeEnforcer::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
                           Transitions* out) {
  if (in_port == 0) {
    out->push_back({0, packet});  // inbound records state; folded into the flow
    return;
  }
  // Outbound branch A: destination in the whitelist.
  if (!whitelist_.IsEmpty()) {
    SymbolicPacket branch = packet;
    if (branch.Constrain(HeaderField::kIpDst, whitelist_)) {
      out->push_back({1, std::move(branch)});
    }
  }
  // Outbound branch B: response to an authorized peer — the destination is
  // the value the ingress source carried (implicit authorization).
  if (packet.ingress_var(HeaderField::kIpSrc) != symexec::kNoVar) {
    SymbolicPacket branch = packet;
    branch.SetValue(HeaderField::kIpDst,
                    SymbolicValue::Var(packet.ingress_var(HeaderField::kIpSrc)));
    out->push_back({1, std::move(branch)});
  }
}

void FlowMeter::Push(int /*port*/, Packet& packet) {
  ++flows_[packet.FlowKey()];
  ForwardTo(0, packet);
}

void FlowMeter::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                      Transitions* out) {
  out->push_back({0, packet});
}

bool RateLimiter::Configure(const std::string& args, std::string* error) {
  std::vector<std::string> parts = SplitArgs(args);
  if (parts.empty() || parts[0].empty()) {
    *error = "RateLimiter: needs RATE_BPS [BURST_BYTES]";
    return false;
  }
  try {
    rate_bps_ = std::stod(parts[0]);
    if (parts.size() > 1 && !parts[1].empty()) {
      burst_bytes_ = std::stod(parts[1]);
    }
  } catch (...) {
    *error = "RateLimiter: bad numeric argument";
    return false;
  }
  tokens_ = burst_bytes_;
  return true;
}

void RateLimiter::Push(int /*port*/, Packet& packet) {
  uint64_t now = clock() != nullptr ? clock()->now() : packet.timestamp_ns();
  if (now > last_ns_) {
    tokens_ = std::min(burst_bytes_,
                       tokens_ + (static_cast<double>(now - last_ns_) / 1e9) * rate_bps_ / 8.0);
    last_ns_ = now;
  }
  double need = static_cast<double>(packet.length());
  if (tokens_ >= need) {
    tokens_ -= need;
    ForwardTo(0, packet);
  } else {
    CountDrop();
  }
}

void RateLimiter::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                        Transitions* out) {
  // Any packet may conform; a drop is no new path.
  out->push_back({0, packet});
}

// --- Middlebox building blocks --------------------------------------------------------

bool ContentMatch::Configure(const std::string& args, std::string* error) {
  pattern_ = Trim(args);
  if (pattern_.empty()) {
    *error = "ContentMatch: needs a pattern";
    return false;
  }
  SetPorts(1, 2);
  return true;
}

void ContentMatch::Push(int /*port*/, Packet& packet) {
  std::string_view payload = packet.PayloadView();
  bool match = !pattern_.empty() &&
               payload.find(pattern_) != std::string_view::npos;
  if (match) {
    ++match_count_;
    ForwardTo(1, packet);
  } else {
    ForwardTo(0, packet);
  }
}

void ContentMatch::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  // The payload is opaque: both outcomes are possible.
  out->push_back({0, packet});
  out->push_back({1, packet});
}

bool UDPTunnelEncap::Configure(const std::string& args, std::string* error) {
  std::vector<std::string> parts = SplitArgs(args);
  if (parts.size() < 2) {
    *error = "UDPTunnelEncap: needs SRC, DST [, PORT]";
    return false;
  }
  auto src = Ipv4Address::Parse(parts[0]);
  auto dst = Ipv4Address::Parse(parts[1]);
  if (!src || !dst) {
    *error = "UDPTunnelEncap: bad address";
    return false;
  }
  src_ = *src;
  dst_ = *dst;
  if (parts.size() > 2 && !ParsePort(parts[2], &port_)) {
    *error = "UDPTunnelEncap: bad port '" + parts[2] + "'";
    return false;
  }
  return true;
}

void UDPTunnelEncap::Push(int /*port*/, Packet& packet) {
  // Carry the inner IP packet (sans Ethernet) as tunnel payload.
  size_t inner_len = std::min(packet.length() - kEthHeaderLen,
                              kMaxFrameLen - kEthHeaderLen - kIpHeaderLen - sizeof(UdpHeader));
  Packet outer = Packet::MakeUdp(src_, dst_, port_, port_, inner_len);
  std::memcpy(outer.mutable_payload(), packet.data() + kEthHeaderLen, inner_len);
  outer.RefreshChecksums();
  outer.set_timestamp_ns(packet.timestamp_ns());
  ForwardTo(0, outer);
}

void UDPTunnelEncap::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                           Transitions* out) {
  SymbolicPacket next = packet;
  next.SetConst(HeaderField::kIpSrc, src_.value());
  next.SetConst(HeaderField::kIpDst, dst_.value());
  next.SetConst(HeaderField::kProto, kProtoUdp);
  next.SetConst(HeaderField::kSrcPort, port_);
  next.SetConst(HeaderField::kDstPort, port_);
  next.SetFresh(HeaderField::kPayload, ctx->vars);  // inner packet rides inside
  out->push_back({0, std::move(next)});
}

void UDPTunnelDecap::Push(int /*port*/, Packet& packet) {
  if (packet.protocol() != kProtoUdp || packet.payload_length() < kIpHeaderLen) {
    CountDrop();
    return;
  }
  // Restore Ethernet framing in front of the tunneled IP packet.
  size_t inner_len = packet.payload_length();
  uint8_t frame[kMaxFrameLen];
  auto* eth = reinterpret_cast<EthernetHeader*>(frame);
  std::memset(eth, 0, sizeof(*eth));
  eth->ether_type = HostToNet16(kEtherTypeIpv4);
  std::memcpy(frame + kEthHeaderLen, packet.payload(), inner_len);
  Packet inner = Packet::FromWire(frame, kEthHeaderLen + inner_len);
  if (inner.length() == 0) {
    CountDrop();
    return;
  }
  inner.set_timestamp_ns(packet.timestamp_ns());
  ForwardTo(0, inner);
}

void UDPTunnelDecap::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                           Transitions* out) {
  SymbolicPacket next = packet;
  if (!next.Constrain(HeaderField::kProto, ValueSet::Single(kProtoUdp))) {
    return;
  }
  // Everything about the inner packet is decided at runtime by the tunnel
  // payload — fresh unknowns. This is precisely why Table 1 gives tunnels a
  // sandbox verdict for third parties.
  next.SetFresh(HeaderField::kIpSrc, ctx->vars);
  next.SetFresh(HeaderField::kIpDst, ctx->vars);
  next.SetFresh(HeaderField::kProto, ctx->vars);
  next.SetFresh(HeaderField::kSrcPort, ctx->vars);
  next.SetFresh(HeaderField::kDstPort, ctx->vars);
  next.SetFresh(HeaderField::kPayload, ctx->vars);
  out->push_back({0, std::move(next)});
}

bool LinearIPLookup::Configure(const std::string& args, std::string* error) {
  for (const std::string& part : SplitArgs(args)) {
    if (part.empty()) {
      continue;
    }
    std::vector<std::string> words = SplitWords(part);
    if (words.size() != 2) {
      *error = "LinearIPLookup: route must be 'PREFIX PORT', got '" + part + "'";
      return false;
    }
    auto prefix = Ipv4Prefix::Parse(words[0]);
    if (!prefix) {
      *error = "LinearIPLookup: bad prefix '" + words[0] + "'";
      return false;
    }
    int out = 0;
    try {
      out = std::stoi(words[1]);
    } catch (...) {
      *error = "LinearIPLookup: bad port '" + words[1] + "'";
      return false;
    }
    routes_.push_back({*prefix, out});
  }
  if (routes_.empty()) {
    *error = "LinearIPLookup: needs at least one route";
    return false;
  }
  int max_port = 0;
  for (const Route& route : routes_) {
    max_port = std::max(max_port, route.out_port);
  }
  SetPorts(1, max_port + 1);
  std::stable_sort(routes_.begin(), routes_.end(), [](const Route& a, const Route& b) {
    return a.prefix.length() > b.prefix.length();
  });
  return true;
}

void LinearIPLookup::Push(int /*port*/, Packet& packet) {
  for (const Route& route : routes_) {
    if (route.prefix.Contains(packet.ip_dst())) {
      ForwardTo(route.out_port, packet);
      return;
    }
  }
  CountDrop();
}

void LinearIPLookup::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                           Transitions* out) {
  // Subtracting each route in longest-first order implements LPM.
  ValueSet remaining = packet.PossibleValues(HeaderField::kIpDst);
  for (const Route& route : routes_) {
    ValueSet range = ValueSet::FromPrefix(route.prefix);
    ValueSet matched = remaining.Intersect(range);
    if (!matched.IsEmpty()) {
      SymbolicPacket branch = packet;
      if (branch.Constrain(HeaderField::kIpDst, matched)) {
        out->push_back({route.out_port, std::move(branch)});
      }
    }
    remaining = remaining.Subtract(range);
    if (remaining.IsEmpty()) {
      break;
    }
  }
}

bool NatRewriter::Configure(const std::string& args, std::string* error) {
  std::vector<std::string> words = SplitWords(args);
  if (words.size() != 2 || words[0] != "PUBLIC") {
    *error = "NatRewriter: expected 'PUBLIC a.b.c.d'";
    return false;
  }
  auto addr = Ipv4Address::Parse(words[1]);
  if (!addr) {
    *error = "NatRewriter: bad address '" + words[1] + "'";
    return false;
  }
  public_addr_ = *addr;
  return true;
}

void NatRewriter::Push(int port, Packet& packet) {
  if (port == 0) {
    // Outbound: source-NAT.
    uint64_t key = (static_cast<uint64_t>(packet.ip_src().value()) << 24) ^
                   (static_cast<uint64_t>(packet.src_port()) << 8) ^ packet.protocol();
    auto it = mappings_.find(key);
    uint16_t public_port;
    if (it == mappings_.end()) {
      public_port = next_port_++;
      mappings_.emplace(key, public_port);
      reverse_.emplace(public_port,
                       std::make_pair(packet.ip_src().value(), packet.src_port()));
    } else {
      public_port = it->second;
    }
    packet.set_ip_src(public_addr_);
    packet.set_src_port(public_port);
    packet.RefreshChecksums();
    ForwardTo(0, packet);
    return;
  }
  // Inbound: restore the mapped destination.
  auto it = reverse_.find(packet.dst_port());
  if (it == reverse_.end()) {
    CountDrop();
    return;
  }
  packet.set_ip_dst(Ipv4Address(it->second.first));
  packet.set_dst_port(it->second.second);
  packet.RefreshChecksums();
  ForwardTo(1, packet);
}

void NatRewriter::Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
                        Transitions* out) {
  SymbolicPacket next = packet;
  if (in_port == 0) {
    // Outbound: source-NAT to the public address.
    next.SetConst(HeaderField::kIpSrc, public_addr_.value());
    next.SetFresh(HeaderField::kSrcPort, ctx->vars);
    out->push_back({0, std::move(next)});
    return;
  }
  // Inbound: the restored destination comes from NAT state, unknown at
  // install time.
  next.SetFresh(HeaderField::kIpDst, ctx->vars);
  next.SetFresh(HeaderField::kDstPort, ctx->vars);
  out->push_back({1, std::move(next)});
}

// --- Stock processing modules -----------------------------------------------------------

void DnsGeoServer::Push(int /*port*/, Packet& packet) {
  if (packet.protocol() != kProtoUdp || packet.dst_port() != 53) {
    CountDrop();
    return;
  }
  Ipv4Address client = packet.ip_src();
  uint16_t client_port = packet.src_port();
  packet.set_ip_src(packet.ip_dst());
  packet.set_ip_dst(client);
  packet.set_src_port(53);
  packet.set_dst_port(client_port);
  packet.RefreshChecksums();
  ForwardTo(0, packet);
}

void DnsGeoServer::Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  SymbolicPacket next = packet;
  if (!next.Constrain(HeaderField::kProto, ValueSet::Single(kProtoUdp)) ||
      !next.Constrain(HeaderField::kDstPort, ValueSet::Single(53))) {
    return;
  }
  // Respond to the requester: swap addresses and ports.
  SymbolicValue old_src = next.value(HeaderField::kIpSrc);
  SymbolicValue old_dst = next.value(HeaderField::kIpDst);
  SymbolicValue old_sport = next.value(HeaderField::kSrcPort);
  next.SetValue(HeaderField::kIpSrc, old_dst);
  next.SetValue(HeaderField::kIpDst, old_src);
  next.SetConst(HeaderField::kSrcPort, 53);
  next.SetValue(HeaderField::kDstPort, old_sport);
  // The answer payload is generated by the server.
  out->push_back({0, std::move(next)});
}

bool ReverseProxy::Configure(const std::string& args, std::string* error) {
  Ipv4Address self;
  Ipv4Address origin;
  bool have_self = false;
  bool have_origin = false;
  for (const std::string& part : SplitArgs(args)) {
    std::vector<std::string> words = SplitWords(part);
    if (words.size() != 2) {
      *error = "ReverseProxy: expected 'SELF addr, ORIGIN addr'";
      return false;
    }
    auto addr = Ipv4Address::Parse(words[1]);
    if (!addr) {
      *error = "ReverseProxy: bad address '" + words[1] + "'";
      return false;
    }
    if (words[0] == "SELF") {
      self = *addr;
      have_self = true;
    } else if (words[0] == "ORIGIN") {
      origin = *addr;
      have_origin = true;
    } else {
      *error = "ReverseProxy: unknown keyword '" + words[0] + "'";
      return false;
    }
  }
  if (!have_self || !have_origin) {
    *error = "ReverseProxy: both SELF and ORIGIN are required";
    return false;
  }
  self_ = self;
  origin_ = origin;
  SetPorts(1, 2);
  return true;
}

void ReverseProxy::Push(int /*port*/, Packet& packet) {
  ++counter_;
  bool hit = (static_cast<double>(counter_ % 100) / 100.0) < hit_ratio_;
  if (hit) {
    // Cache hit: respond to the requester (implicit authorization).
    Ipv4Address client = packet.ip_src();
    uint16_t client_port = packet.src_port();
    packet.set_ip_src(self_);
    packet.set_ip_dst(client);
    packet.set_src_port(80);
    packet.set_dst_port(client_port);
    packet.RefreshChecksums();
    ForwardTo(0, packet);
    return;
  }
  // Miss: fetch from the whitelisted origin, as ourselves.
  packet.set_ip_src(self_);
  packet.set_ip_dst(origin_);
  packet.set_dst_port(80);
  packet.RefreshChecksums();
  ForwardTo(1, packet);
}

void ReverseProxy::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                         Transitions* out) {
  // Hit: reply to the requester as ourselves.
  {
    SymbolicPacket hit = packet;
    SymbolicValue requester = hit.value(HeaderField::kIpSrc);
    SymbolicValue req_port = hit.value(HeaderField::kSrcPort);
    hit.SetConst(HeaderField::kIpSrc, self_.value());
    hit.SetValue(HeaderField::kIpDst, requester);
    hit.SetConst(HeaderField::kSrcPort, 80);
    hit.SetValue(HeaderField::kDstPort, req_port);
    hit.SetFresh(HeaderField::kPayload, ctx->vars);
    out->push_back({0, std::move(hit)});
  }
  // Miss: fetch from the whitelisted origin, as ourselves.
  {
    SymbolicPacket miss = packet;
    miss.SetConst(HeaderField::kIpSrc, self_.value());
    miss.SetConst(HeaderField::kIpDst, origin_.value());
    miss.SetConst(HeaderField::kDstPort, 80);
    out->push_back({1, std::move(miss)});
  }
}

void X86Vm::Push(int /*port*/, Packet& packet) { ForwardTo(0, packet); }

void X86Vm::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                  Transitions* out) {
  // An arbitrary x86 VM: every field may be anything on egress.
  SymbolicPacket next = packet;
  next.SetFresh(HeaderField::kIpSrc, ctx->vars);
  next.SetFresh(HeaderField::kIpDst, ctx->vars);
  next.SetFresh(HeaderField::kProto, ctx->vars);
  next.SetFresh(HeaderField::kTtl, ctx->vars);
  next.SetFresh(HeaderField::kSrcPort, ctx->vars);
  next.SetFresh(HeaderField::kDstPort, ctx->vars);
  next.SetFresh(HeaderField::kPayload, ctx->vars);
  out->push_back({0, std::move(next)});
}

void TransparentProxy::Push(int /*port*/, Packet& packet) { ForwardTo(0, packet); }

void TransparentProxy::Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
                             Transitions* out) {
  // Transit traffic passes with original addressing; the proxy may rewrite
  // the application payload.
  SymbolicPacket next = packet;
  next.SetFresh(HeaderField::kPayload, ctx->vars);
  out->push_back({0, std::move(next)});
}

}  // namespace innet::click
