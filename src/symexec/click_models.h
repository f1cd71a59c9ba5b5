// Abstract symbolic models for every Click element class in the registry
// (§4.3: "we have manually modeled all the stock Click elements").
//
// The models reuse the runtime elements' own Configure() parsing — the model
// builder instantiates the element, reads its parsed state through accessors,
// and discards it — so runtime and model can never drift on configuration
// syntax.
#ifndef SRC_SYMEXEC_CLICK_MODELS_H_
#define SRC_SYMEXEC_CLICK_MODELS_H_

#include <memory>
#include <optional>
#include <string>

#include "src/click/config_parser.h"
#include "src/symexec/engine.h"

namespace innet::symexec {

// Builds the symbolic graph for a full Click configuration. Node names equal
// element instance names, and node i is config.elements[i]. ToNetfront and
// ToDevice elements are delivery sinks. nullopt and *error when an element's
// class is unknown (i.e. not admissible in In-Net), its configuration is
// malformed, or a connection uses a port the element does not have.
std::optional<SymGraph> BuildClickModel(const click::ConfigGraph& config, std::string* error);

// Names of the FromNetfront and FromDevice elements in `config` — the
// module's ingress points where the controller injects symbolic packets.
std::vector<std::string> ModuleSources(const click::ConfigGraph& config);

// One symbolic exploration of a module on its own: its standalone model
// and every path a fully unconstrained packet takes from each of its
// sources. The security verdict, the egress pinholes, the path digest and
// the controller's embedded fragment are all read from it.
struct ModuleExploration {
  SymGraph graph;            // BuildClickModel(config): node i is element i
  std::vector<int> sources;  // FromNetfront/FromDevice node ids, in config order
  std::vector<int> sinks;    // ToNetfront/ToDevice node ids, in config order
  // Packets that left through a ToNetfront/ToDevice, and packets dropped
  // inside the module, each grouped by source in `sources` order.
  std::vector<SymbolicPacket> delivered;
  std::vector<SymbolicPacket> dropped;
  bool truncated = false;  // some run hit the engine's exploration budget
};

// Builds the standalone model of `config` once and runs one engine from
// each source. nullopt and *error when the config cannot be modeled.
std::optional<ModuleExploration> ExploreModule(const click::ConfigGraph& config,
                                               std::string* error);

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_CLICK_MODELS_H_
