#include "src/symexec/path_digest.h"

#include <set>
#include <string>
#include <vector>

#include "src/click/graph.h"
#include "src/symexec/symbolic_packet.h"

namespace innet::symexec {
namespace {

// Hashes every prefix of `packet`'s canonical element chain into
// `prefixes`, including the empty one (a packet dropped before reaching any
// tenant element is always conformant), and returns the hash of the whole
// chain. A symbolic history records a hop when the packet *leaves* a node,
// so sinks never appear; sources do and are skipped, like at runtime. Each
// prefix is hashed as its ';'-joined text, the form obs::HashChain hashes.
uint64_t AddPrefixes(const SymbolicPacket& packet, const std::vector<bool>& endpoint,
                     std::set<uint64_t>* prefixes) {
  std::string joined;
  uint64_t hash = obs::HashChainText(joined);
  prefixes->insert(hash);
  bool first = true;
  for (int hop = 0; hop < packet.hop_count(); ++hop) {
    int node = packet.HopNode(hop);
    if (endpoint[static_cast<size_t>(node)]) {
      continue;
    }
    if (!first) {
      joined.push_back(';');
    }
    first = false;
    joined += packet.HopName(hop);
    hash = obs::HashChainText(joined);
    prefixes->insert(hash);
  }
  return hash;
}

}  // namespace

obs::IntPathDigest ComputePathDigest(const click::ConfigGraph& config,
                                     const ModuleExploration& exploration) {
  // Node i of the model is element i of the config.
  std::vector<bool> endpoint;
  endpoint.reserve(config.elements.size());
  for (const click::ElementDecl& decl : config.elements) {
    endpoint.push_back(click::IsEndpointClass(decl.class_name));
  }
  // ToNetfront is a delivery sink in the explored model, so "delivered"
  // means "left the module through a declared egress" — the exact event the
  // runtime completes an egress postcard on.
  std::set<uint64_t> full;
  std::set<uint64_t> prefixes;
  for (const SymbolicPacket& packet : exploration.delivered) {
    full.insert(AddPrefixes(packet, endpoint, &prefixes));
  }
  for (const SymbolicPacket& packet : exploration.dropped) {
    AddPrefixes(packet, endpoint, &prefixes);
  }
  obs::IntPathDigest digest;
  digest.truncated = exploration.truncated;
  digest.full_paths.assign(full.begin(), full.end());
  digest.prefixes.assign(prefixes.begin(), prefixes.end());
  return digest;
}

obs::IntPathDigest ComputePathDigest(const click::ConfigGraph& config) {
  std::string error;
  std::optional<ModuleExploration> exploration = ExploreModule(config, &error);
  if (!exploration) {
    return {};  // unbuildable configs never deploy; nothing to attest
  }
  return ComputePathDigest(config, *exploration);
}

obs::IntPathDigest ComputePathDigestFromText(const std::string& config_text) {
  std::string error;
  auto config = click::ConfigGraph::Parse(config_text, &error);
  if (!config) {
    return {};
  }
  return ComputePathDigest(*config);
}

}  // namespace innet::symexec
