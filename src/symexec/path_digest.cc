#include "src/symexec/path_digest.h"

#include <map>
#include <set>
#include <vector>

#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"
#include "src/symexec/symbolic_packet.h"

namespace innet::symexec {
namespace {

// Must mirror the runtime exclusion set in src/click/profiler.cc — the two
// sides hash the same canonical form or attestation is meaningless.
bool IsEndpointClass(const std::string& class_name) {
  return class_name == "FromNetfront" || class_name == "ToNetfront" ||
         class_name == "FromDevice" || class_name == "ToDevice" || class_name == "Discard";
}

// A symbolic history records a hop when the packet *leaves* a node, so sinks
// never appear; sources do and are filtered here, like at runtime.
std::vector<std::string> Canonicalize(const SymbolicPacket& packet,
                                      const std::map<std::string, std::string>& classes) {
  std::vector<std::string> chain;
  for (const Hop* hop : packet.history()) {
    auto it = classes.find(hop->node);
    if (it != classes.end() && IsEndpointClass(it->second)) {
      continue;
    }
    chain.push_back(hop->node);
  }
  return chain;
}

// Every prefix, including the empty one: a packet dropped before reaching
// any tenant element is always conformant.
void AddPrefixes(const std::vector<std::string>& chain, std::set<uint64_t>* prefixes) {
  std::vector<std::string> prefix;
  prefixes->insert(obs::HashChain(prefix));
  for (const std::string& element : chain) {
    prefix.push_back(element);
    prefixes->insert(obs::HashChain(prefix));
  }
}

}  // namespace

obs::IntPathDigest ComputePathDigest(const click::ConfigGraph& config) {
  obs::IntPathDigest digest;
  std::string error;
  // embedded=false: ToNetfront stays a delivery sink, so "delivered" below
  // means "left the module through a declared egress" — the exact event the
  // runtime completes an egress postcard on.
  auto model = BuildClickModel(config, &error, /*embedded=*/false);
  if (!model) {
    return digest;  // unbuildable configs never deploy; nothing to attest
  }
  std::map<std::string, std::string> classes;
  for (const click::ElementDecl& decl : config.elements) {
    classes[decl.name] = decl.class_name;
  }

  std::set<uint64_t> full;
  std::set<uint64_t> prefixes;
  for (const std::string& source : ModuleSources(config)) {
    int start = model->FindNode(source);
    if (start < 0) {
      continue;
    }
    Engine engine;
    EngineResult result =
        engine.Run(*model, start, 0, SymbolicPacket::MakeUnconstrained(engine.vars()));
    if (result.truncated) {
      digest.truncated = true;
    }
    for (const SymbolicPacket& packet : result.delivered) {
      std::vector<std::string> chain = Canonicalize(packet, classes);
      full.insert(obs::HashChain(chain));
      AddPrefixes(chain, &prefixes);
    }
    for (const SymbolicPacket& packet : result.dropped) {
      AddPrefixes(Canonicalize(packet, classes), &prefixes);
    }
  }
  digest.full_paths.assign(full.begin(), full.end());
  digest.prefixes.assign(prefixes.begin(), prefixes.end());
  return digest;
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
