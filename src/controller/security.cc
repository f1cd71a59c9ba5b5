#include "src/controller/security.h"

#include <sstream>

namespace innet::controller {

using innet::HeaderField;
using symexec::SymbolicPacket;
using symexec::SymbolicValue;
using symexec::ValueSet;

namespace {

// 0 = compliant, 1 = conditional (decided at runtime), 2 = violation.
enum Severity { kOk = 0, kConditional = 1, kViolation = 2 };

struct Classification {
  Severity severity;
  std::string reason;
};

bool IsSubsetOf(const ValueSet& values, const ValueSet& allowed) {
  return values.Subtract(allowed).IsEmpty();
}

ValueSet AllowedSources(const SecurityOptions& options) {
  ValueSet allowed = ValueSet::Single(options.module_addr.value());
  for (const Ipv4Prefix& prefix : options.owned_prefixes) {
    allowed = allowed.Union(ValueSet::FromPrefix(prefix));
  }
  return allowed;
}

ValueSet AllowedDestinations(const SecurityOptions& options) {
  ValueSet allowed = ValueSet::Single(options.module_addr.value());
  for (Ipv4Address addr : options.whitelist) {
    allowed = allowed.Union(ValueSet::Single(addr.value()));
  }
  return allowed;
}

// Which ingress field (if any) this value is bound to.
enum class IngressBinding { kNone, kSrc, kDst, kOther };

IngressBinding BindingOf(const SymbolicPacket& packet, const SymbolicValue& value) {
  if (value.is_const) {
    return IngressBinding::kNone;
  }
  if (value.var == packet.ingress_var(HeaderField::kIpSrc)) {
    return IngressBinding::kSrc;
  }
  if (value.var == packet.ingress_var(HeaderField::kIpDst)) {
    return IngressBinding::kDst;
  }
  static constexpr HeaderField kOthers[] = {HeaderField::kProto, HeaderField::kTtl,
                                            HeaderField::kSrcPort, HeaderField::kDstPort,
                                            HeaderField::kPayload, HeaderField::kFirewallTag};
  for (HeaderField f : kOthers) {
    if (value.var == packet.ingress_var(f)) {
      return IngressBinding::kOther;
    }
  }
  return IngressBinding::kNone;  // fresh variable, module-defined
}

Classification ClassifySource(const SymbolicPacket& packet, const SecurityOptions& options) {
  const SymbolicValue& src = packet.value(HeaderField::kIpSrc);
  ValueSet allowed = AllowedSources(options);
  if (src.is_const) {
    if (allowed.Contains(src.const_value)) {
      return {kOk, "source is an assigned/owned address"};
    }
    return {kViolation, "source spoofs a fixed address " +
                            Ipv4Address(static_cast<uint32_t>(src.const_value)).ToString()};
  }
  switch (BindingOf(packet, src)) {
    case IngressBinding::kSrc:
      return {kOk, "source invariant from ingress (anti-spoofing holds)"};
    case IngressBinding::kDst:
      // The switch only delivers dst == module address, so replying with the
      // ingress destination IS replying as the assigned address.
      return {kOk, "source equals ingress destination (module's own address)"};
    case IngressBinding::kOther:
      return {kViolation, "source copied from an unrelated ingress header"};
    case IngressBinding::kNone:
      break;
  }
  if (IsSubsetOf(packet.PossibleValues(HeaderField::kIpSrc), allowed)) {
    return {kOk, "source constrained to owned addresses"};
  }
  return {kConditional, "source decided at runtime (opaque processing)"};
}

Classification ClassifyDestination(const SymbolicPacket& packet,
                                   const SecurityOptions& options) {
  const SymbolicValue& dst = packet.value(HeaderField::kIpDst);
  ValueSet allowed = AllowedDestinations(options);
  bool client = options.requester == RequesterClass::kClient;
  if (dst.is_const) {
    if (allowed.Contains(dst.const_value)) {
      return {kOk, "destination explicitly authorized"};
    }
    if (client) {
      return {kOk, "client-chosen fixed destination (customers may send anywhere)"};
    }
    return {kViolation,
            "destination " + Ipv4Address(static_cast<uint32_t>(dst.const_value)).ToString() +
                " not authorized (default-off)"};
  }
  switch (BindingOf(packet, dst)) {
    case IngressBinding::kSrc:
      return {kOk, "destination equals ingress source (implicit authorization)"};
    case IngressBinding::kDst:
    case IngressBinding::kOther:
      return {kViolation,
              "destination copied from attacker-controlled ingress headers (transit relay)"};
    case IngressBinding::kNone:
      break;
  }
  if (IsSubsetOf(packet.PossibleValues(HeaderField::kIpDst), allowed)) {
    return {kOk, "destination constrained to the whitelist"};
  }
  if (client) {
    return {kOk, "module-chosen destination (customers may send anywhere)"};
  }
  return {kConditional, "destination decided at runtime; may or may not be authorized"};
}

}  // namespace

std::string_view RequesterClassName(RequesterClass requester) {
  switch (requester) {
    case RequesterClass::kThirdParty:
      return "third-party";
    case RequesterClass::kClient:
      return "client";
    case RequesterClass::kOperator:
      return "operator";
  }
  return "?";
}

std::string_view VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe:
      return "safe";
    case Verdict::kNeedsSandbox:
      return "sandbox";
    case Verdict::kRejected:
      return "rejected";
  }
  return "?";
}

std::string SecurityReport::Summary() const {
  std::ostringstream out;
  out << VerdictName(verdict) << " (" << compliant_paths << " compliant, " << conditional_paths
      << " conditional, " << violating_paths << " violating)";
  return out.str();
}

SecurityReport ClassifyModuleFlows(const symexec::ModuleExploration& exploration,
                                   const SecurityOptions& options) {
  SecurityReport report;
  if (options.requester == RequesterClass::kOperator) {
    // The operator trusts its own modules; static analysis is only used for
    // correctness (the client-requirements checks), not security.
    report.verdict = Verdict::kSafe;
    return report;
  }
  if (exploration.sources.empty()) {
    report.verdict = Verdict::kRejected;
    report.findings.push_back("configuration has no FromNetfront ingress");
    return report;
  }

  for (const SymbolicPacket& packet : exploration.delivered) {
    Classification src = ClassifySource(packet, options);
    Classification dst = ClassifyDestination(packet, options);
    Severity severity = src.severity > dst.severity ? src.severity : dst.severity;
    const std::string& reason = src.severity >= dst.severity ? src.reason : dst.reason;
    switch (severity) {
      case kOk:
        ++report.compliant_paths;
        break;
      case kConditional:
        ++report.conditional_paths;
        report.findings.push_back("conditional flow at " + packet.delivered_at() + ": " + reason);
        break;
      case kViolation:
        ++report.violating_paths;
        report.findings.push_back("violating flow at " + packet.delivered_at() + ": " + reason);
        break;
    }
  }

  if (report.violating_paths > 0) {
    report.verdict = Verdict::kRejected;
  } else if (report.conditional_paths > 0) {
    report.verdict = Verdict::kNeedsSandbox;
  } else {
    report.verdict = Verdict::kSafe;
  }
  return report;
}

SecurityReport CheckModuleSecurity(const click::ConfigGraph& config,
                                   const SecurityOptions& options, std::string* error) {
  std::optional<symexec::ModuleExploration> exploration = symexec::ExploreModule(config, error);
  if (!exploration) {
    SecurityReport report;
    report.findings.push_back("cannot model configuration: " + *error);
    return report;
  }
  return ClassifyModuleFlows(*exploration, options);
}

}  // namespace innet::controller
