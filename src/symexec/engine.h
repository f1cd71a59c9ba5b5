// SymGraph + Engine: path exploration over a graph of symbolic models.
#ifndef SRC_SYMEXEC_ENGINE_H_
#define SRC_SYMEXEC_ENGINE_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/symexec/model.h"

namespace innet::symexec {

// A directed graph of symbolic nodes. Nodes have dense ids (their insertion
// order) and one shared name table; each node keeps its out-edges indexed by
// out-port, the first two inline. Unconnected out-ports drop.
class SymGraph {
 public:
  int AddNode(const std::string& name, std::shared_ptr<SymbolicModel> model);
  // Room for `nodes` nodes in all, so a build that knows its size grows the
  // node and name tables once.
  void Reserve(size_t nodes);
  void Connect(int from, int out_port, int to, int in_port);
  // Gives node `id` another model, keeping its name and edges.
  void SetModel(int id, std::shared_ptr<SymbolicModel> model) {
    nodes_[static_cast<size_t>(id)].model = std::move(model);
  }

  // Id of the first node called `name`, -1 if absent. A scan of the name
  // table: it serves the few names a build wires by or a query starts from;
  // exploration works on ids.
  int FindNode(const std::string& name) const;
  const std::string& NodeName(int id) const { return (*names_)[static_cast<size_t>(id)]; }
  size_t node_count() const { return nodes_.size(); }
  // The name table (null while the graph is empty), shared with every packet
  // explored over this graph so they can render their hops after the graph
  // is gone. Adding a node to a graph whose table is shared copies the table
  // first.
  std::shared_ptr<const NameTable> names() const { return names_; }

  // Merges `other` into this graph, prefixing its node names with
  // `prefix` + "/". Returns the id offset of the merged nodes: node i of
  // `other` becomes node offset + i. Used by the controller to graft a client
  // module onto the operator topology.
  int Merge(const SymGraph& other, const std::string& prefix);

 private:
  friend class Engine;
  struct Edge {
    int to = -1;  // -1: unconnected
    int in_port = 0;
  };
  // Most nodes have one or two out-ports, so those edges live in the node and
  // a graph build allocates no edge storage for them.
  static constexpr size_t kInlineEdges = 2;
  struct Node {
    std::shared_ptr<SymbolicModel> model;
    std::array<Edge, kInlineEdges> edges{};
    std::vector<Edge> more_edges;  // out-port kInlineEdges + i at index i

    // The edge leaving `out_port`, or nullptr when the port is unconnected.
    const Edge* EdgeAt(int out_port) const;
  };
  NameTable& MutableNames();

  std::vector<Node> nodes_;
  std::shared_ptr<NameTable> names_;
};

struct EngineOptions {
  int max_hops = 256;
  int max_paths = 65536;
};

struct EngineResult {
  // Packets that reached a delivery point (SinkModel / kPortDeliver).
  std::vector<SymbolicPacket> delivered;
  // Packets dropped inside the graph (model returned no transitions) or that
  // fell off an unconnected port; kept for diagnostics.
  std::vector<SymbolicPacket> dropped;
  // True when exploration hit max_hops or max_paths (result incomplete).
  bool truncated = false;
  // Total model applications — the work metric Figure 10 reports.
  uint64_t steps = 0;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = {}) : options_(options) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Injects `seed` at node `start` (arriving on `in_port`) and explores all
  // paths. The seed's constraints (from a flow spec) carry through. A seed
  // without hops starts its path in this run's hop arena.
  EngineResult Run(const SymGraph& graph, int start, int in_port, SymbolicPacket seed);

  VarAllocator* vars() { return &vars_; }

 private:
  struct WorkItem {
    int node = 0;
    int in_port = 0;
    SymbolicPacket packet;
  };

  EngineOptions options_;
  VarAllocator vars_;
  // Kept from run to run, so that a step allocates nothing once they have
  // grown: the hop arena (reused once no packet of the last run is alive),
  // the FIFO work queue (a ring), and the models' output buffers.
  std::shared_ptr<HopArena> arena_;
  std::vector<WorkItem> queue_;
  Transitions transitions_;
  std::vector<SymbolicPacket> branches_;
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_ENGINE_H_
