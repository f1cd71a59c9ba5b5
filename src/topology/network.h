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

// A module (hypothetically) deployed on `platform` at `addr`, as
// Network::BuildSymGraph embeds it. Its nodes are named "<id>/<element>".
struct ModuleAttachment {
  std::string id;
  std::string platform;
  Ipv4Address addr;
  // Null: the platform still gets the module's port, but nothing is wired
  // to it.
  const ModuleFragment* fragment = nullptr;
};

// The network is immutable once built: the modules and firewall pinholes a
// verification graph includes are arguments of BuildSymGraph.
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

  // Builds the symbolic graph for the whole network; node i is nodes()[i]
  // and keeps its name. Each platform's switch model forwards dst==addr of
  // every module attached to it out of that module's port: the platform's
  // links come first, then one port per module, in `modules` order. Each
  // module's fragment is merged after the network's nodes and wired to its
  // port, so the controller can test placements before committing (§4.3).
  // Every stateful firewall admits inbound flows matching `pinholes`: the
  // ones the controller opens when a customer explicitly authorizes traffic
  // to its registered addresses (§2.1).
  symexec::SymGraph BuildSymGraph(const std::vector<ModuleAttachment>& modules = {},
                                  std::vector<FlowSpec> pinholes = {}) const;

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
  Node* FindMutable(const std::string& name);

  std::vector<Node> nodes_;
  std::unordered_map<std::string, size_t> by_name_;
};

}  // namespace innet::topology

#endif  // SRC_TOPOLOGY_NETWORK_H_
