#include "src/symexec/click_models.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "src/click/graph.h"
#include "src/click/registry.h"

namespace innet::symexec {

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
    // The element, configured exactly as the runtime configures it, is the
    // node's model.
    std::unique_ptr<click::Element> element =
        click::Registry::Global().Create(decl.class_name, decl.args, error);
    if (element == nullptr) {
      *error = "element '" + decl.name + "': " + *error;
      return std::nullopt;
    }
    ports[i] = {element->n_inputs(), element->n_outputs()};
    ids.emplace_back(decl.name, graph.AddNode(decl.name, std::move(element)));
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
    if (click::IsSourceClass(decl.class_name)) {
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
    if (click::IsSourceClass(class_name)) {
      exploration.sources.push_back(static_cast<int>(i));
    } else if (click::IsSinkClass(class_name)) {
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
