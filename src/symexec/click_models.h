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

// Creates the symbolic model for one element instance; nullptr + *error when
// the class is unknown (i.e. not admissible in In-Net) or the configuration
// is malformed.
std::shared_ptr<SymbolicModel> MakeElementModel(const std::string& class_name,
                                                const std::string& args, std::string* error);

// Builds the symbolic graph for a full Click configuration. Node names equal
// element instance names, and node i is config.elements[i]. With `embedded` set, ToNetfront elements become
// pass-throughs (their output 0 is wired back into the hosting platform by
// the controller) instead of delivery sinks.
std::optional<SymGraph> BuildClickModel(const click::ConfigGraph& config, std::string* error,
                                        bool embedded = false);

// Names of the FromNetfront elements in `config` — the module's ingress
// points where the controller injects symbolic packets.
std::vector<std::string> ModuleSources(const click::ConfigGraph& config);
// Names of the ToNetfront elements — the module's egress points.
std::vector<std::string> ModuleSinks(const click::ConfigGraph& config);

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_CLICK_MODELS_H_
