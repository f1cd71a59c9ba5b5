// The In-Net security checker (§2.1, §4.4): decides whether a processing
// module is safe to run unsandboxed, must be sandboxed, or must be rejected.
//
// The controller injects a fully unconstrained symbolic packet into each of
// the module's sources (symexec::ExploreModule) and classifies every egress
// flow:
//
//   source address must be (a) the controller-assigned module address,
//   (b) an address the requester registered as owned, (c) invariant from
//   ingress (anti-spoofing), or (d) the ingress *destination* — which the
//   platform switch guarantees equals the module address (explicit
//   addressing, §2.1);
//
//   destination address must be (a) whitelisted (explicit authorization),
//   (b) the ingress source (implicit authorization), or — for the operator's
//   own residential/mobile customers — (c) any module-chosen value (they may
//   send traffic anywhere, §2.1). A destination copied from attacker-
//   controlled ingress headers (e.g. a router forwarding by dst) is always a
//   violation: that is transit relaying, the DDoS vector default-off exists
//   to close.
//
// Flows whose fields are *fresh unknowns* decided only at runtime (tunnel
// decapsulation, x86 VMs) are conditional: the module might behave, so the
// paper's answer is to run it sandboxed (Table 1's "(s)" entries).
//
// Verdict: every flow compliant -> kSafe; any certainly-violating flow ->
// kRejected (sandboxing cannot make it legitimate); otherwise (compliant +
// conditional mix) -> kNeedsSandbox.
#ifndef SRC_CONTROLLER_SECURITY_H_
#define SRC_CONTROLLER_SECURITY_H_

#include <string>
#include <vector>

#include "src/click/config_parser.h"
#include "src/netcore/ip.h"
#include "src/symexec/click_models.h"

namespace innet::controller {

enum class RequesterClass {
  kThirdParty,  // untrusted customer of the in-network cloud
  kClient,      // the operator's own residential/mobile customer
  kOperator,    // the operator itself (trusted; checked for correctness only)
};

enum class Verdict { kSafe, kNeedsSandbox, kRejected };

std::string_view RequesterClassName(RequesterClass requester);
std::string_view VerdictName(Verdict verdict);

struct SecurityOptions {
  RequesterClass requester = RequesterClass::kThirdParty;
  Ipv4Address module_addr;
  // Destinations explicitly authorized to receive module traffic.
  std::vector<Ipv4Address> whitelist;
  // Prefixes the requester registered as owned (legitimate source addresses).
  std::vector<Ipv4Prefix> owned_prefixes;
};

struct SecurityReport {
  Verdict verdict = Verdict::kRejected;
  int compliant_paths = 0;
  int conditional_paths = 0;
  int violating_paths = 0;
  std::vector<std::string> findings;  // human-readable per-flow diagnoses
  std::string Summary() const;
};

// Classifies every egress flow of an exploration of the module (kSafe for
// the operator, which trusts its own modules and verifies them only for
// correctness).
SecurityReport ClassifyModuleFlows(const symexec::ModuleExploration& exploration,
                                   const SecurityOptions& options);

// Explores a standalone module configuration and classifies its flows.
// Returns a kRejected report with an explanation in *error when the
// configuration cannot be modeled (unknown element class, bad arguments).
SecurityReport CheckModuleSecurity(const click::ConfigGraph& config,
                                   const SecurityOptions& options, std::string* error);

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_SECURITY_H_
