#include "src/symexec/click_models.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "src/click/elements.h"
#include "src/click/elements_switching.h"
#include "src/click/registry.h"

namespace innet::symexec {
namespace {

using click::Element;

// The branch of `packet` that does NOT match `spec`. Exact when the spec has
// a single directed predicate (the common case for classifier patterns);
// over-approximate (unconstrained) otherwise — which can only make the
// checker report *more* reachable flows, never fewer, preserving soundness
// of "no compliant flow exists" rejections.
SymbolicPacket ElseBranch(const SymbolicPacket& packet, const FlowSpec& spec) {
  int pred_count = (spec.proto() ? 1 : 0) + (spec.ttl() ? 1 : 0) +
                   static_cast<int>(spec.addr_predicates().size()) +
                   static_cast<int>(spec.port_predicates().size());
  SymbolicPacket out = packet;
  if (spec.IsWildcard()) {
    out.MarkInfeasible();
    return out;
  }
  if (pred_count != 1) {
    return out;  // over-approximate
  }
  if (spec.proto()) {
    out.Constrain(HeaderField::kProto,
                  ValueSet::Full().Subtract(ValueSet::Single(*spec.proto())));
    return out;
  }
  if (spec.ttl()) {
    out.Constrain(HeaderField::kTtl, ValueSet::Full().Subtract(ValueSet::Single(*spec.ttl())));
    return out;
  }
  if (!spec.addr_predicates().empty()) {
    const AddrPredicate& pred = spec.addr_predicates()[0];
    if (pred.dir == Direction::kEither) {
      return out;  // negation of a disjunction: over-approximate
    }
    HeaderField f = pred.dir == Direction::kSrc ? HeaderField::kIpSrc : HeaderField::kIpDst;
    out.Constrain(f, ValueSet::Full().Subtract(ValueSet::FromPrefix(pred.prefix)));
    return out;
  }
  const PortPredicate& pred = spec.port_predicates()[0];
  if (pred.dir == Direction::kEither) {
    return out;
  }
  HeaderField f = pred.dir == Direction::kSrc ? HeaderField::kSrcPort : HeaderField::kDstPort;
  out.Constrain(f, ValueSet::Full().Subtract(ValueSet::Range(pred.lo, pred.hi)));
  return out;
}

// --- Concrete models ---------------------------------------------------------------

class FilterModel : public SymbolicModel {
 public:
  explicit FilterModel(std::vector<click::IPFilter::Rule> rules) : rules_(std::move(rules)) {}

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    SymbolicPacket remaining = packet;
    for (const auto& rule : rules_) {
      if (!remaining.feasible()) {
        break;
      }
      if (rule.allow) {
        EmitFlowSpecBranches(ctx, remaining, rule.spec, 0, out);
      }
      remaining = ElseBranch(remaining, rule.spec);
    }
  }

 private:
  std::vector<click::IPFilter::Rule> rules_;
};

class ClassifierModel : public SymbolicModel {
 public:
  explicit ClassifierModel(std::vector<FlowSpec> patterns) : patterns_(std::move(patterns)) {}

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    SymbolicPacket remaining = packet;
    for (size_t i = 0; i < patterns_.size(); ++i) {
      if (!remaining.feasible()) {
        break;
      }
      EmitFlowSpecBranches(ctx, remaining, patterns_[i], static_cast<int>(i), out);
      remaining = ElseBranch(remaining, patterns_[i]);
    }
  }

 private:
  std::vector<FlowSpec> patterns_;
};

class RewriteModel : public SymbolicModel {
 public:
  RewriteModel(std::optional<uint32_t> src, std::optional<uint32_t> dst,
               std::optional<uint16_t> sport, std::optional<uint16_t> dport)
      : src_(src), dst_(dst), sport_(sport), dport_(dport) {}

  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    SymbolicPacket next = packet;
    if (src_) {
      next.SetConst(HeaderField::kIpSrc, *src_);
    }
    if (dst_) {
      next.SetConst(HeaderField::kIpDst, *dst_);
    }
    if (sport_) {
      next.SetConst(HeaderField::kSrcPort, *sport_);
    }
    if (dport_) {
      next.SetConst(HeaderField::kDstPort, *dport_);
    }
    out->push_back({0, std::move(next)});
  }

 private:
  std::optional<uint32_t> src_;
  std::optional<uint32_t> dst_;
  std::optional<uint16_t> sport_;
  std::optional<uint16_t> dport_;
};

class DecTtlModel : public SymbolicModel {
 public:
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    SymbolicPacket next = packet;
    // We do not model arithmetic; a decrement is a redefinition, which is all
    // invariant checking needs.
    next.SetFresh(HeaderField::kTtl, ctx->vars);
    out->push_back({0, std::move(next)});
  }
};

class TeeModel : public SymbolicModel {
 public:
  explicit TeeModel(int n) : n_(n) {}
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    for (int i = 0; i < n_; ++i) {
      out->push_back({i, packet});
    }
  }

 private:
  int n_;
};

class ContentMatchModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    // The payload is opaque: both outcomes are possible.
    out->push_back({0, packet});
    out->push_back({1, packet});
  }
};

class ChangeEnforcerModel : public SymbolicModel {
 public:
  explicit ChangeEnforcerModel(const std::vector<uint32_t>& whitelist) {
    for (uint32_t addr : whitelist) {
      whitelist_ = whitelist_.Union(ValueSet::Single(addr));
    }
  }

  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
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
    if (packet.ingress_var(HeaderField::kIpSrc) != kNoVar) {
      SymbolicPacket branch = packet;
      branch.SetValue(HeaderField::kIpDst,
                      SymbolicValue::Var(packet.ingress_var(HeaderField::kIpSrc)));
      out->push_back({1, std::move(branch)});
    }
  }

 private:
  ValueSet whitelist_;
};

class TunnelEncapModel : public SymbolicModel {
 public:
  TunnelEncapModel(uint32_t src, uint32_t dst, uint16_t port)
      : src_(src), dst_(dst), port_(port) {}

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    SymbolicPacket next = packet;
    next.SetConst(HeaderField::kIpSrc, src_);
    next.SetConst(HeaderField::kIpDst, dst_);
    next.SetConst(HeaderField::kProto, kProtoUdp);
    next.SetConst(HeaderField::kSrcPort, port_);
    next.SetConst(HeaderField::kDstPort, port_);
    next.SetFresh(HeaderField::kPayload, ctx->vars);  // inner packet rides inside
    out->push_back({0, std::move(next)});
  }

 private:
  uint32_t src_;
  uint32_t dst_;
  uint16_t port_;
};

class TunnelDecapModel : public SymbolicModel {
 public:
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
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
};

class IpLookupModel : public SymbolicModel {
 public:
  explicit IpLookupModel(std::vector<click::LinearIPLookup::Route> routes)
      : routes_(std::move(routes)) {
    // Longest prefix first makes sequential subtraction implement LPM.
    std::sort(routes_.begin(), routes_.end(), [](const auto& a, const auto& b) {
      return a.prefix.length() > b.prefix.length();
    });
  }

  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    ValueSet remaining = packet.PossibleValues(HeaderField::kIpDst);
    for (const auto& route : routes_) {
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

 private:
  std::vector<click::LinearIPLookup::Route> routes_;
};

class NatModel : public SymbolicModel {
 public:
  explicit NatModel(uint32_t public_addr) : public_addr_(public_addr) {}

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    SymbolicPacket next = packet;
    if (in_port == 0) {
      // Outbound: source-NAT to the public address.
      next.SetConst(HeaderField::kIpSrc, public_addr_);
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

 private:
  uint32_t public_addr_;
};

class DnsServerModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
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
};

class ReverseProxyModel : public SymbolicModel {
 public:
  ReverseProxyModel(uint32_t self, uint32_t origin) : self_(self), origin_(origin) {}

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    // Hit: reply to the requester as ourselves.
    {
      SymbolicPacket hit = packet;
      SymbolicValue requester = hit.value(HeaderField::kIpSrc);
      SymbolicValue req_port = hit.value(HeaderField::kSrcPort);
      hit.SetConst(HeaderField::kIpSrc, self_);
      hit.SetValue(HeaderField::kIpDst, requester);
      hit.SetConst(HeaderField::kSrcPort, 80);
      hit.SetValue(HeaderField::kDstPort, req_port);
      hit.SetFresh(HeaderField::kPayload, ctx->vars);
      out->push_back({0, std::move(hit)});
    }
    // Miss: fetch from the whitelisted origin, as ourselves.
    {
      SymbolicPacket miss = packet;
      miss.SetConst(HeaderField::kIpSrc, self_);
      miss.SetConst(HeaderField::kIpDst, origin_);
      miss.SetConst(HeaderField::kDstPort, 80);
      out->push_back({1, std::move(miss)});
    }
  }

 private:
  uint32_t self_;
  uint32_t origin_;
};

class OpaqueModel : public SymbolicModel {
 public:
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
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
};

class PaintModel : public SymbolicModel {
 public:
  explicit PaintModel(uint8_t color) : color_(color) {}
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    SymbolicPacket next = packet;
    next.SetConst(HeaderField::kPaint, color_);
    out->push_back({0, std::move(next)});
  }

 private:
  uint8_t color_;
};

class PaintSwitchModel : public SymbolicModel {
 public:
  explicit PaintSwitchModel(int n) : n_(n) {}
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    for (int i = 0; i < n_; ++i) {
      SymbolicPacket branch = packet;
      if (branch.Constrain(HeaderField::kPaint, ValueSet::Single(static_cast<uint64_t>(i)))) {
        out->push_back({i, std::move(branch)});
      }
    }
  }

 private:
  int n_;
};

// Round-robin and hash switches route on internal state / flow hashes the
// checker does not model; any output is possible, so every branch stays live
// (a sound over-approximation).
class AnyOutputModel : public SymbolicModel {
 public:
  explicit AnyOutputModel(int n) : n_(n) {}
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    for (int i = 0; i < n_; ++i) {
      out->push_back({i, packet});
    }
  }

 private:
  int n_;
};

class IcmpResponderModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
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
};

class ExplicitProxyModel : public SymbolicModel {
 public:
  explicit ExplicitProxyModel(uint32_t self) : self_(self) {}
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    // The proxy fetches as itself; the target comes from the request payload
    // — a fresh unknown, decided at runtime.
    SymbolicPacket next = packet;
    next.SetConst(HeaderField::kIpSrc, self_);
    next.SetFresh(HeaderField::kIpDst, ctx->vars);
    next.SetFresh(HeaderField::kDstPort, ctx->vars);
    out->push_back({0, std::move(next)});
  }

 private:
  uint32_t self_;
};

class TransparentProxyModel : public SymbolicModel {
 public:
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    // Transit traffic passes with original addressing; the proxy may rewrite
    // the application payload.
    SymbolicPacket next = packet;
    next.SetFresh(HeaderField::kPayload, ctx->vars);
    out->push_back({0, std::move(next)});
  }
};

class DropModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& /*packet*/, int /*in_port*/,
             Transitions* /*out*/) override {}
};

bool IsSource(const std::string& class_name) {
  return class_name == "FromNetfront" || class_name == "FromDevice";
}

bool IsSink(const std::string& class_name) {
  return class_name == "ToNetfront" || class_name == "ToDevice";
}

// Creates the symbolic model for one element instance and reports its port
// counts; nullptr and *error when the class is unknown or the configuration is
// malformed.
std::shared_ptr<SymbolicModel> MakeElementModel(const std::string& class_name,
                                                const std::string& args, std::string* error,
                                                int* n_inputs, int* n_outputs) {
  // Parse the configuration exactly as the runtime would.
  std::unique_ptr<Element> element = click::Registry::Global().Create(class_name, args, error);
  if (element == nullptr) {
    return nullptr;
  }
  *n_inputs = element->n_inputs();
  *n_outputs = element->n_outputs();

  if (class_name == "FromNetfront" || class_name == "FromDevice" ||
      class_name == "Counter" || class_name == "CheckIPHeader" || class_name == "Queue" ||
      class_name == "TimedUnqueue" || class_name == "FlowMeter" ||
      class_name == "RateLimiter") {
    // These never modify header fields: a batcher delays, a meter counts, a
    // limiter drops — so header *and payload* invariants hold across them.
    return std::make_shared<PassthroughModel>();
  }
  if (IsSink(class_name)) {
    return std::make_shared<SinkModel>();
  }
  if (class_name == "Discard") {
    return std::make_shared<DropModel>();
  }
  if (class_name == "Tee") {
    return std::make_shared<TeeModel>(element->n_outputs());
  }
  if (class_name == "IPFilter") {
    auto* filter = static_cast<click::IPFilter*>(element.get());
    return std::make_shared<FilterModel>(filter->rules());
  }
  if (class_name == "IPClassifier" || class_name == "Classifier") {
    auto* classifier = static_cast<click::IPClassifier*>(element.get());
    return std::make_shared<ClassifierModel>(classifier->patterns());
  }
  if (class_name == "IPRewriter") {
    auto* rw = static_cast<click::IPRewriter*>(element.get());
    auto addr_value = [](const std::optional<Ipv4Address>& a) -> std::optional<uint32_t> {
      return a ? std::optional<uint32_t>(a->value()) : std::nullopt;
    };
    return std::make_shared<RewriteModel>(addr_value(rw->new_src()), addr_value(rw->new_dst()),
                                          rw->new_sport(), rw->new_dport());
  }
  if (class_name == "SetIPSrc") {
    auto* set = static_cast<click::SetIPSrc*>(element.get());
    return std::make_shared<RewriteModel>(set->addr().value(), std::nullopt, std::nullopt,
                                          std::nullopt);
  }
  if (class_name == "SetIPDst") {
    auto* set = static_cast<click::SetIPDst*>(element.get());
    return std::make_shared<RewriteModel>(std::nullopt, set->addr().value(), std::nullopt,
                                          std::nullopt);
  }
  if (class_name == "DecIPTTL") {
    return std::make_shared<DecTtlModel>();
  }
  if (class_name == "ChangeEnforcer") {
    auto* enforcer = static_cast<click::ChangeEnforcer*>(element.get());
    std::vector<uint32_t> whitelist(enforcer->whitelist().begin(), enforcer->whitelist().end());
    return std::make_shared<ChangeEnforcerModel>(whitelist);
  }
  if (class_name == "ContentMatch") {
    return std::make_shared<ContentMatchModel>();
  }
  if (class_name == "UDPTunnelEncap") {
    auto* encap = static_cast<click::UDPTunnelEncap*>(element.get());
    return std::make_shared<TunnelEncapModel>(encap->src().value(), encap->dst().value(),
                                              encap->tunnel_port());
  }
  if (class_name == "UDPTunnelDecap") {
    return std::make_shared<TunnelDecapModel>();
  }
  if (class_name == "LinearIPLookup") {
    auto* lookup = static_cast<click::LinearIPLookup*>(element.get());
    return std::make_shared<IpLookupModel>(lookup->routes());
  }
  if (class_name == "NatRewriter") {
    auto* nat = static_cast<click::NatRewriter*>(element.get());
    return std::make_shared<NatModel>(nat->public_addr().value());
  }
  if (class_name == "DnsGeoServer") {
    return std::make_shared<DnsServerModel>();
  }
  if (class_name == "ReverseProxy") {
    auto* proxy = static_cast<click::ReverseProxy*>(element.get());
    return std::make_shared<ReverseProxyModel>(proxy->self().value(), proxy->origin().value());
  }
  if (class_name == "X86Vm") {
    return std::make_shared<OpaqueModel>();
  }
  if (class_name == "TransparentProxy") {
    return std::make_shared<TransparentProxyModel>();
  }
  if (class_name == "Paint") {
    auto* paint = static_cast<click::Paint*>(element.get());
    return std::make_shared<PaintModel>(paint->color());
  }
  if (class_name == "PaintSwitch" || class_name == "RoundRobinSwitch" ||
      class_name == "HashSwitch") {
    int n = element->n_outputs();
    if (class_name == "PaintSwitch") {
      return std::make_shared<PaintSwitchModel>(n);
    }
    return std::make_shared<AnyOutputModel>(n);
  }
  if (class_name == "RandomSample") {
    return std::make_shared<AnyOutputModel>(2);
  }
  if (class_name == "SetTTL") {
    uint8_t ttl = static_cast<click::SetTTL*>(element.get())->ttl();
    return std::make_shared<LambdaModel>(
        [ttl](ModelContext*, const SymbolicPacket& packet, int, Transitions* out) {
          SymbolicPacket next = packet;
          next.SetConst(HeaderField::kTtl, ttl);
          out->push_back({0, std::move(next)});
        });
  }
  if (class_name == "ICMPPingResponder") {
    return std::make_shared<IcmpResponderModel>();
  }
  if (class_name == "ExplicitProxy") {
    auto* proxy = static_cast<click::ExplicitProxy*>(element.get());
    return std::make_shared<ExplicitProxyModel>(proxy->self().value());
  }
  if (class_name == "AddressDemux") {
    auto* demux = static_cast<click::AddressDemux*>(element.get());
    // Equivalent to an IPClassifier over exact destination hosts.
    std::vector<FlowSpec> patterns;
    for (Ipv4Address addr : demux->addresses()) {
      patterns.push_back(FlowSpec::MustParse("dst host " + addr.ToString()));
    }
    return std::make_shared<ClassifierModel>(std::move(patterns));
  }
  *error = "no symbolic model for element class '" + class_name + "'";
  return nullptr;
}

}  // namespace

std::optional<SymGraph> BuildClickModel(const click::ConfigGraph& config, std::string* error) {
  SymGraph graph;
  // Each element's input and output port counts, to check connections
  // against as the runtime graph does, and its id by name (the first one
  // when names repeat), to resolve their endpoints: (name, id) pairs sorted
  // by name, then id.
  std::vector<std::pair<int, int>> ports(config.elements.size());
  std::vector<std::pair<std::string_view, int>> ids;
  ids.reserve(config.elements.size());
  graph.Reserve(config.elements.size());
  for (size_t i = 0; i < config.elements.size(); ++i) {
    const click::ElementDecl& decl = config.elements[i];
    std::shared_ptr<SymbolicModel> model =
        MakeElementModel(decl.class_name, decl.args, error, &ports[i].first, &ports[i].second);
    if (model == nullptr) {
      *error = "element '" + decl.name + "': " + *error;
      return std::nullopt;
    }
    ids.emplace_back(decl.name, graph.AddNode(decl.name, std::move(model)));
  }
  std::sort(ids.begin(), ids.end());
  auto id_of = [&ids](std::string_view name) {
    auto it = std::lower_bound(ids.begin(), ids.end(), std::pair<std::string_view, int>(name, -1));
    return it != ids.end() && it->first == name ? it->second : -1;
  };
  for (const click::Connection& conn : config.connections) {
    int from = id_of(conn.from);
    int to = id_of(conn.to);
    if (from < 0 || to < 0) {
      *error = "connection references unknown element";
      return std::nullopt;
    }
    if (conn.from_port < 0 || conn.from_port >= ports[static_cast<size_t>(from)].second ||
        conn.to_port < 0 || conn.to_port >= ports[static_cast<size_t>(to)].first) {
      *error = "connection " + conn.from + "[" + std::to_string(conn.from_port) + "] -> [" +
               std::to_string(conn.to_port) + "]" + conn.to + " uses a port out of range";
      return std::nullopt;
    }
    graph.Connect(from, conn.from_port, to, conn.to_port);
  }
  return graph;
}

std::vector<std::string> ModuleSources(const click::ConfigGraph& config) {
  std::vector<std::string> names;
  for (const click::ElementDecl& decl : config.elements) {
    if (IsSource(decl.class_name)) {
      names.push_back(decl.name);
    }
  }
  return names;
}

std::optional<ModuleExploration> ExploreModule(const click::ConfigGraph& config,
                                               std::string* error) {
  std::optional<SymGraph> graph = BuildClickModel(config, error);
  if (!graph) {
    return std::nullopt;
  }
  ModuleExploration exploration;
  exploration.graph = std::move(*graph);
  for (size_t i = 0; i < config.elements.size(); ++i) {
    const std::string& class_name = config.elements[i].class_name;
    if (IsSource(class_name)) {
      exploration.sources.push_back(static_cast<int>(i));
    } else if (IsSink(class_name)) {
      exploration.sinks.push_back(static_cast<int>(i));
    }
  }
  for (int source : exploration.sources) {
    Engine engine;
    EngineResult result = engine.Run(exploration.graph, source, kPortInject,
                                     SymbolicPacket::MakeUnconstrained(engine.vars()));
    exploration.truncated = exploration.truncated || result.truncated;
    std::move(result.delivered.begin(), result.delivered.end(),
              std::back_inserter(exploration.delivered));
    std::move(result.dropped.begin(), result.dropped.end(),
              std::back_inserter(exploration.dropped));
  }
  return exploration;
}

}  // namespace innet::symexec
