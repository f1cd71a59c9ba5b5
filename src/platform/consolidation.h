// Consolidation (§5, Figure 8): merges many tenants' stateless Click
// configurations into one VM image. The merged graph demultiplexes by
// destination address with an IPClassifier, runs each tenant's elements on
// its own branch (no shared element instances, no cross-links), and funnels
// every tenant's egress to a single ToNetfront — exactly the structure whose
// per-packet demux cost produces Figure 8's throughput knee past ~150
// configurations.
#ifndef SRC_PLATFORM_CONSOLIDATION_H_
#define SRC_PLATFORM_CONSOLIDATION_H_

#include <optional>
#include <string>
#include <vector>

#include "src/click/config_parser.h"
#include "src/netcore/ip.h"

namespace innet::platform {

struct TenantConfig {
  Ipv4Address addr;         // the tenant module's address (demux key)
  std::string config_text;  // the tenant's Click configuration
};

// A tenant whose configuration is already parsed. `config` is borrowed and
// must outlive the ConsolidateTenants call.
struct ParsedTenantConfig {
  Ipv4Address addr;
  const click::ConfigGraph* config = nullptr;
};

// How the merged configuration demultiplexes tenants:
//   kLinearClassifier — an IPClassifier pattern scan, O(#tenants) per packet
//     (the paper's setup, whose cost produces Figure 8's knee);
//   kHashDemux — an AddressDemux exact-match table, O(1) per packet (the
//     ablation alternative).
enum class DemuxKind { kLinearClassifier, kHashDemux };

// Builds the merged configuration. Element names are prefixed "t<i>_" so
// tenants can never collide. The demux branch takes the place of each
// tenant's first source; a later source stays as an idle element, as it is
// in a dedicated guest. Every sink is wired to the shared egress. Returns
// nullopt + *error ("tenant <i>: ...") when a tenant config lacks a
// FromNetfront/ToNetfront or uses stateful elements (which the paper's
// prototype refuses to consolidate).
std::optional<click::ConfigGraph> ConsolidateTenants(
    const std::vector<ParsedTenantConfig>& tenants, std::string* error,
    DemuxKind demux = DemuxKind::kLinearClassifier);

// Parses every tenant's text, then merges as above; a syntax error fails
// with "tenant <i>: <parse error>".
std::optional<click::ConfigGraph> ConsolidateTenants(
    const std::vector<TenantConfig>& tenants, std::string* error,
    DemuxKind demux = DemuxKind::kLinearClassifier);

// True when the configuration only uses stateless elements and is therefore
// safe to consolidate (§5: "our prototype takes the simpler option of not
// consolidating clients running stateful processing").
bool IsStatelessConfig(const click::ConfigGraph& config);

}  // namespace innet::platform

#endif  // SRC_PLATFORM_CONSOLIDATION_H_
