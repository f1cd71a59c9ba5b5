// The operator network snapshot the controller verifies requests against:
// routers with routing tables, operator middleboxes, processing platforms,
// client subnets, and the Internet edge (the paper's Figure 3).
#ifndef SRC_TOPOLOGY_NETWORK_H_
#define SRC_TOPOLOGY_NETWORK_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/netcore/flowspec.h"
#include "src/netcore/ip.h"
#include "src/symexec/engine.h"

namespace innet::topology {

enum class NodeKind {
  kInternet,      // the outside world: origin and sink of arbitrary traffic
  kClientSubnet,  // residential/mobile customers behind an access prefix
  kRouter,        // longest-prefix forwarding
  kMiddlebox,     // operator middlebox on a path
  kPlatform,      // an In-Net processing platform
  kServer,        // an operator-run server (e.g. DNS)
};

enum class MiddleboxKind {
  kStatefulFirewall,  // allows configured outbound protocols + related inbound
  kHttpOptimizer,     // may rewrite HTTP payloads (TCP port 80)
  kWebCache,          // transparent web cache
  kPassthrough,       // wire-speed bump (used by generated topologies)
};

struct RouteEntry {
  Ipv4Prefix prefix;
  std::string next_hop;  // neighbor node name
  // Optional policy-routing classifier (e.g. "tcp src port 80"); wildcard
  // routes match on prefix alone. Routes are evaluated in declaration order.
  FlowSpec match;
};

struct Node {
  std::string name;
  NodeKind kind = NodeKind::kRouter;

  // kRouter: longest-prefix routes; unmatched packets follow `default_route`
  // when set, else drop.
  std::vector<RouteEntry> routes;
  std::string default_route;

  // kMiddlebox parameters.
  MiddleboxKind middlebox = MiddleboxKind::kPassthrough;
  std::vector<uint8_t> allowed_outbound_protos;  // stateful firewall
  // Two-port middleboxes: the first link is the *inside* (client-facing)
  // port, the second the *outside*.

  // kClientSubnet: the prefix customers live in.
  Ipv4Prefix subnet;

  // kPlatform: the pool module addresses are assigned from.
  Ipv4Prefix address_pool;

  // Link endpoints in port order (filled by AddLink).
  std::vector<std::string> neighbors;
};

// A module's symbolic model in the form the verification graph embeds (its
// ToNetfront elements forward back into the platform), with the ids of its
// ingress and egress nodes.
struct ModuleFragment {
  symexec::SymGraph graph;
  int entry = -1;          // the first FromNetfront; -1 when there is none
  std::vector<int> exits;  // every ToNetfront
};

// One deployment's firewall pinholes, shared by every verification graph
// that includes the deployment.
using PinholeSet = std::shared_ptr<const std::vector<FlowSpec>>;

// A module (hypothetically) deployed on `platform` at `addr`, as a
// verification graph embeds it. Its nodes are named "<id>/<element>".
struct ModuleAttachment {
  std::string id;
  std::string platform;
  Ipv4Address addr;
  // Null: the platform still gets the module's port, but nothing is wired
  // to it.
  const ModuleFragment* fragment = nullptr;
  // Inbound flows every stateful firewall admits while the module is
  // attached: the ones the controller opens when a customer explicitly
  // authorizes traffic to its registered addresses (§2.1). Null or empty
  // when it opens none.
  PinholeSet pinholes;
};

// Where a platform's switch hands traffic for one attached module.
struct ModulePort {
  uint32_t addr;
  int port;
};

// The network is immutable once built: the modules a verification graph
// includes, and their firewall pinholes, are pushed onto a VerificationGraph.
class Network {
 public:
  // Adds a node; returns false if the name already exists.
  bool AddNode(Node node);
  // Connects two existing nodes; ports are allocated in call order.
  bool AddLink(const std::string& a, const std::string& b);

  const Node* Find(const std::string& name) const;
  const std::vector<Node>& nodes() const { return nodes_; }

  // Port index of `neighbor` on `node`, or -1.
  int PortOf(const std::string& node, const std::string& neighbor) const;

  std::vector<const Node*> Platforms() const;
  std::vector<const Node*> ClientSubnets() const;

  // The node that owns `addr` (client subnet or platform pool), or nullptr.
  const Node* OwnerOf(Ipv4Address addr) const;

  // Hop count of the shortest link path between two nodes; -1 when
  // disconnected or unknown. The controller uses this to prefer platforms
  // close to the traffic the tenant serves (the geolocation placement of the
  // CDN/DNS use cases).
  int HopDistance(const std::string& from, const std::string& to) const;

  // Builds the symbolic graph for the whole network with `modules` pushed
  // onto it in order (see VerificationGraph); node i is nodes()[i] and keeps
  // its name.
  symexec::SymGraph BuildSymGraph(const std::vector<ModuleAttachment>& modules = {}) const;

  // --- Canned topologies -------------------------------------------------------
  // The paper's Figure 3: internet -- border router -- {path A: nat&fw;
  // path B: web cache + HTTP optimizer} -- access router -- clients, with
  // three platforms hanging off the routers.
  static Network MakeFigure3();
  // A random operator topology with `n_middleboxes` middleboxes in a chain of
  // branching paths, for the Figure 10 scaling experiment.
  static Network MakeScalingTopology(int n_middleboxes, uint64_t seed = 1);
  // A multi-PoP operator: a core router facing the Internet and `pops`
  // regional PoPs, each with an access router, a client subnet
  // (10.<pop+1>.0.0/16), and a platform (172.16.<pop+10>.0/24) — the
  // highly-distributed in-network cloud of §1.
  static Network MakeMultiPop(int pops);

 private:
  friend class VerificationGraph;
  Node* FindMutable(const std::string& name);

  std::vector<Node> nodes_;
  std::unordered_map<std::string, size_t> by_name_;
};

// The symbolic graph of a network with a stack of modules attached, kept
// from one verification to the next so that the controller checks each
// candidate placement by a push and a pop instead of a rebuild (§4.3).
//
// Node i is the network's node i. Push merges a module's fragment after
// the nodes already there and wires it to the next port of its platform:
// the platform's links come first, then one port per module, in push order.
// The platform's switch forwards dst==addr of each of its modules out of
// that module's port; every stateful firewall admits the pushed modules'
// pinholes, in push order. Pop undoes the newest Push, so the graph after
// any sequence of pushes and pops equals a fresh build of the modules left
// on the stack, node ids and port numbers included: Network::BuildSymGraph
// is a fresh graph and one push per module.
class VerificationGraph {
 public:
  // `module_nodes`: room for that many module nodes beyond the network's.
  explicit VerificationGraph(const Network& network, size_t module_nodes = 0);
  // The graph's models refer to the port and pinhole lists kept here, so a
  // copy would share them.
  VerificationGraph(const VerificationGraph&) = delete;
  VerificationGraph& operator=(const VerificationGraph&) = delete;

  // Attaches `module` after the modules on the stack. The graph copies the
  // fragment's nodes and shares the pinhole set.
  void Push(const ModuleAttachment& module);
  // Detaches the newest module.
  void Pop();
  size_t module_count() const { return stack_.size(); }

  const symexec::SymGraph& graph() const { return graph_; }
  // The graph, for a caller that keeps it after this object is gone.
  symexec::SymGraph TakeGraph() && { return std::move(graph_); }
  // The ports of the modules attached to `platform`, in push order; empty
  // for a name that is not a platform.
  std::vector<ModulePort> ModulePorts(const std::string& platform) const;

 private:
  struct Platform {
    int node;
    int links;
    // Shared with the platform's switch model.
    std::shared_ptr<std::vector<ModulePort>> ports;
  };
  struct Pushed {
    int platform;  // index into platforms_; -1 when the module names no platform
    int port;
    size_t first_node;
    bool pinholes;  // pushed a set onto pinholes_
  };

  symexec::SymGraph graph_;
  std::vector<Platform> platforms_;
  // Shared with every stateful firewall model.
  std::shared_ptr<std::vector<PinholeSet>> pinholes_;
  std::vector<Pushed> stack_;
};

}  // namespace innet::topology

#endif  // SRC_TOPOLOGY_NETWORK_H_
