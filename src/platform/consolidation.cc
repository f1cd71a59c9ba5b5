#include "src/platform/consolidation.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "src/click/graph.h"

namespace innet::platform {

bool IsStatelessConfig(const click::ConfigGraph& config) {
  // Elements that keep per-flow or per-peer state.
  static const std::unordered_set<std::string> kStateful = {
      "ChangeEnforcer", "NatRewriter", "FlowMeter", "TimedUnqueue", "Queue", "X86Vm",
  };
  for (const click::ElementDecl& decl : config.elements) {
    if (kStateful.count(decl.class_name) != 0) {
      return false;
    }
  }
  return true;
}

std::optional<click::ConfigGraph> ConsolidateTenants(
    const std::vector<ParsedTenantConfig>& tenants, std::string* error, DemuxKind demux) {
  click::ConfigGraph merged;
  merged.elements.push_back({"src", "FromNetfront", ""});

  // Demux: one branch per tenant, keyed on destination address.
  std::string patterns;
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (i > 0) {
      patterns += ", ";
    }
    if (demux == DemuxKind::kLinearClassifier) {
      patterns += "dst host " + tenants[i].addr.ToString();
    } else {
      patterns += tenants[i].addr.ToString();
    }
  }
  merged.elements.push_back(
      {"demux", demux == DemuxKind::kLinearClassifier ? "IPClassifier" : "AddressDemux",
       patterns});
  merged.elements.push_back({"out", "ToNetfront", ""});
  merged.connections.push_back({"src", 0, "demux", 0});

  for (size_t i = 0; i < tenants.size(); ++i) {
    std::string prefix = "t" + std::to_string(i) + "_";
    const click::ConfigGraph& config = *tenants[i].config;
    if (!IsStatelessConfig(config)) {
      *error = "tenant " + std::to_string(i) + ": stateful configurations cannot be "
               "consolidated";
      return std::nullopt;
    }

    // A dedicated guest injects only at its first source, so the demux
    // branch replaces that one; any later source stays as an idle element.
    // Every sink is replaced by the shared egress.
    std::string source_name;
    std::vector<std::string_view> sinks;
    for (const click::ElementDecl& decl : config.elements) {
      if (click::IsSourceClass(decl.class_name) && source_name.empty()) {
        source_name = decl.name;
        continue;
      }
      if (click::IsSinkClass(decl.class_name)) {
        sinks.push_back(decl.name);
        continue;
      }
      merged.elements.push_back({prefix + decl.name, decl.class_name, decl.args});
    }
    if (source_name.empty() || sinks.empty()) {
      *error = "tenant " + std::to_string(i) + ": configuration needs FromNetfront and "
               "ToNetfront";
      return std::nullopt;
    }

    for (const click::Connection& conn : config.connections) {
      std::string from = conn.from;
      int from_port = conn.from_port;
      std::string to = conn.to;
      int to_port = conn.to_port;
      if (from == source_name) {
        from = "demux";
        from_port = static_cast<int>(i);
      } else {
        from = prefix + from;
      }
      if (std::ranges::find(sinks, to) != sinks.end()) {
        to = "out";
        to_port = 0;
      } else {
        to = prefix + to;
      }
      merged.connections.push_back({from, from_port, to, to_port});
    }
  }
  return merged;
}

std::optional<click::ConfigGraph> ConsolidateTenants(const std::vector<TenantConfig>& tenants,
                                                     std::string* error, DemuxKind demux) {
  std::vector<click::ConfigGraph> configs;
  configs.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto config = click::ConfigGraph::Parse(tenants[i].config_text, error);
    if (!config) {
      *error = "tenant " + std::to_string(i) + ": " + *error;
      return std::nullopt;
    }
    configs.push_back(std::move(*config));
  }
  std::vector<ParsedTenantConfig> parsed;
  parsed.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    parsed.push_back({tenants[i].addr, &configs[i]});
  }
  return ConsolidateTenants(parsed, error, demux);
}

}  // namespace innet::platform
