#include "src/topology/network.h"

#include <algorithm>

#include "src/sim/rng.h"

namespace innet::topology {

using innet::HeaderField;
using symexec::kPortDeliver;
using symexec::kPortInject;
using symexec::ModelContext;
using symexec::SymbolicModel;
using symexec::SymbolicPacket;
using symexec::Transitions;
using symexec::ValueSet;

namespace {

// --- Node models -------------------------------------------------------------------

// Internet edge: sources and sinks arbitrary outside traffic.
class InternetModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    if (in_port == kPortInject) {
      SymbolicPacket next = packet;
      // Outside traffic has not traversed the operator firewall yet.
      next.Constrain(HeaderField::kFirewallTag, ValueSet::Single(0));
      out->push_back({0, std::move(next)});
      return;
    }
    out->push_back({kPortDeliver, packet});
  }
};

// Residential/mobile customers behind `subnet`.
class ClientSubnetModel : public SymbolicModel {
 public:
  explicit ClientSubnetModel(Ipv4Prefix subnet) : subnet_(subnet) {}

  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    SymbolicPacket next = packet;
    if (in_port == kPortInject) {
      if (!next.Constrain(HeaderField::kIpSrc, ValueSet::FromPrefix(subnet_))) {
        return;
      }
      next.Constrain(HeaderField::kFirewallTag, ValueSet::Single(0));
      out->push_back({0, std::move(next)});
      return;
    }
    // Deliver only traffic addressed into the subnet.
    if (!next.Constrain(HeaderField::kIpDst, ValueSet::FromPrefix(subnet_))) {
      return;
    }
    out->push_back({kPortDeliver, std::move(next)});
  }

 private:
  Ipv4Prefix subnet_;
};

class ServerModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    out->push_back({in_port == kPortInject ? 0 : kPortDeliver, packet});
  }
};

// Router with prefix + optional policy-routing classifier per route. Routes
// are evaluated in declaration order; wildcard routes consume their prefix
// from the remaining destination space, policy routes do not (the packet may
// or may not match the classifier at runtime, so both paths stay live —
// an over-approximation that can only add reachable flows).
class RouterModel : public SymbolicModel {
 public:
  struct PortRoute {
    Ipv4Prefix prefix;
    int port;
    FlowSpec match;
  };
  RouterModel(std::vector<PortRoute> routes, int default_port)
      : routes_(std::move(routes)), default_port_(default_port) {}

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    ValueSet remaining = packet.PossibleValues(HeaderField::kIpDst);
    for (const PortRoute& route : routes_) {
      if (route.port == in_port) {
        continue;  // never bounce back out the ingress port
      }
      ValueSet range = ValueSet::FromPrefix(route.prefix);
      ValueSet matched = remaining.Intersect(range);
      if (!matched.IsEmpty()) {
        SymbolicPacket branch = packet;
        if (branch.Constrain(HeaderField::kIpDst, matched)) {
          if (route.match.IsWildcard()) {
            out->push_back({route.port, std::move(branch)});
          } else {
            symexec::EmitFlowSpecBranches(ctx, branch, route.match, route.port, out);
          }
        }
      }
      if (route.match.IsWildcard()) {
        remaining = remaining.Subtract(range);
        if (remaining.IsEmpty()) {
          break;
        }
      }
    }
    if (!remaining.IsEmpty() && default_port_ >= 0 && default_port_ != in_port) {
      SymbolicPacket branch = packet;
      if (branch.Constrain(HeaderField::kIpDst, remaining)) {
        out->push_back({default_port_, std::move(branch)});
      }
    }
  }

 private:
  std::vector<PortRoute> routes_;
  int default_port_;
};

// Stateful firewall, modeled as in the paper's Figure 2: outbound traffic of
// an allowed protocol is tagged; inbound traffic must carry the tag (flow
// state folded into the packet so the engine stays oblivious to flow order).
class StatefulFirewallModel : public SymbolicModel {
 public:
  StatefulFirewallModel(const std::vector<uint8_t>& protos,
                        std::shared_ptr<const std::vector<FlowSpec>> pinholes)
      : pinholes_(std::move(pinholes)) {
    for (uint8_t proto : protos) {
      allowed_protos_ = allowed_protos_.Union(ValueSet::Single(proto));
    }
  }

  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    if (in_port == 0) {
      // Outbound (inside -> outside).
      SymbolicPacket next = packet;
      if (!next.Constrain(HeaderField::kProto, allowed_protos_)) {
        return;
      }
      next.SetConst(HeaderField::kFirewallTag, 1);
      out->push_back({1, std::move(next)});
      return;
    }
    // Inbound: traffic related to an authorized outbound flow...
    {
      SymbolicPacket related = packet;
      if (related.Constrain(HeaderField::kFirewallTag, ValueSet::Single(1))) {
        out->push_back({0, std::move(related)});
      }
    }
    // ...or matching a controller-installed pinhole (explicit authorization).
    // A pinhole the packet cannot match yields no branch, so it is skipped
    // before anything is copied.
    for (const FlowSpec& pinhole : *pinholes_) {
      if (packet.CanMatchFlowSpec(pinhole)) {
        symexec::EmitFlowSpecBranches(ctx, packet, pinhole, 0, out);
      }
    }
  }

 private:
  ValueSet allowed_protos_;
  // Shared by every firewall of one graph.
  std::shared_ptr<const std::vector<FlowSpec>> pinholes_;
};

// HTTP optimizer: may rewrite payloads of port-80 TCP traffic in either
// direction; everything else passes untouched.
class HttpOptimizerModel : public SymbolicModel {
 public:
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    int out_port = in_port == 0 ? 1 : 0;
    // HTTP branch: the optimizer may rewrite the payload.
    {
      SymbolicPacket http = packet;
      if (http.Constrain(HeaderField::kProto, ValueSet::Single(kProtoTcp))) {
        SymbolicPacket by_dst = http;
        if (by_dst.Constrain(HeaderField::kDstPort, ValueSet::Single(80))) {
          by_dst.SetFresh(HeaderField::kPayload, ctx->vars);
          out->push_back({out_port, std::move(by_dst)});
        }
        SymbolicPacket by_src = std::move(http);
        if (by_src.Constrain(HeaderField::kSrcPort, ValueSet::Single(80))) {
          by_src.SetFresh(HeaderField::kPayload, ctx->vars);
          out->push_back({out_port, std::move(by_src)});
        }
      }
    }
    // Non-HTTP branch (exact on ports: both != 80).
    {
      SymbolicPacket rest = packet;
      ValueSet not80 = ValueSet::Full().Subtract(ValueSet::Single(80));
      if (rest.Constrain(HeaderField::kSrcPort, not80) &&
          rest.Constrain(HeaderField::kDstPort, not80)) {
        out->push_back({out_port, std::move(rest)});
      }
    }
  }
};

class PassthroughMiddleboxModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    out->push_back({in_port == 0 ? 1 : 0, packet});
  }
};

// Platform software switch: traffic addressed to a deployed module is handed
// to the module's entry node; module egress returns to the network side.
class PlatformModel : public SymbolicModel {
 public:
  struct ModulePort {
    uint32_t addr;
    int port;
  };
  PlatformModel(std::vector<ModulePort> modules, int n_links)
      : modules_(std::move(modules)), n_links_(n_links) {}

  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    if (in_port >= n_links_ || in_port == kPortInject) {
      // From a module (or an injection inside the platform): out the first
      // network link.
      out->push_back({0, packet});
      return;
    }
    for (const ModulePort& module : modules_) {
      SymbolicPacket branch = packet;
      if (branch.Constrain(HeaderField::kIpDst, ValueSet::Single(module.addr))) {
        out->push_back({module.port, std::move(branch)});
      }
    }
  }

 private:
  std::vector<ModulePort> modules_;
  int n_links_;
};

// A model without configuration, shared by every graph that uses it.
template <typename Model>
std::shared_ptr<SymbolicModel> SharedModel() {
  static const std::shared_ptr<SymbolicModel> model = std::make_shared<Model>();
  return model;
}

}  // namespace

bool Network::AddNode(Node node) {
  if (by_name_.count(node.name) != 0) {
    return false;
  }
  by_name_[node.name] = nodes_.size();
  nodes_.push_back(std::move(node));
  return true;
}

bool Network::AddLink(const std::string& a, const std::string& b) {
  Node* na = FindMutable(a);
  Node* nb = FindMutable(b);
  if (na == nullptr || nb == nullptr) {
    return false;
  }
  na->neighbors.push_back(b);
  nb->neighbors.push_back(a);
  return true;
}

const Node* Network::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &nodes_[it->second];
}

Node* Network::FindMutable(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &nodes_[it->second];
}

int Network::PortOf(const std::string& node, const std::string& neighbor) const {
  const Node* n = Find(node);
  if (n == nullptr) {
    return -1;
  }
  for (size_t i = 0; i < n->neighbors.size(); ++i) {
    if (n->neighbors[i] == neighbor) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<const Node*> Network::Platforms() const {
  std::vector<const Node*> result;
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kPlatform) {
      result.push_back(&node);
    }
  }
  return result;
}

std::vector<const Node*> Network::ClientSubnets() const {
  std::vector<const Node*> result;
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kClientSubnet) {
      result.push_back(&node);
    }
  }
  return result;
}

const Node* Network::OwnerOf(Ipv4Address addr) const {
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kClientSubnet && node.subnet.Contains(addr)) {
      return &node;
    }
    if (node.kind == NodeKind::kPlatform && node.address_pool.Contains(addr)) {
      return &node;
    }
  }
  return nullptr;
}

int Network::HopDistance(const std::string& from, const std::string& to) const {
  if (Find(from) == nullptr || Find(to) == nullptr) {
    return -1;
  }
  if (from == to) {
    return 0;
  }
  std::vector<std::string> frontier{from};
  std::unordered_map<std::string, int> dist{{from, 0}};
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& name : frontier) {
      const Node* node = Find(name);
      for (const std::string& neighbor : node->neighbors) {
        if (dist.count(neighbor) != 0) {
          continue;
        }
        dist[neighbor] = dist[name] + 1;
        if (neighbor == to) {
          return dist[neighbor];
        }
        next.push_back(neighbor);
      }
    }
    frontier = std::move(next);
  }
  return -1;
}

symexec::SymGraph Network::BuildSymGraph(const std::vector<ModuleAttachment>& modules,
                                         std::vector<FlowSpec> pinholes) const {
  // The node each module attaches to (-1 when unknown) and its port there:
  // the node's links come first, then one port per module in `modules`
  // order.
  struct Slot {
    int node = -1;
    int port = -1;
  };
  std::vector<Slot> slots(modules.size());
  // Per-node module ports; left empty (no table at all) when no module is
  // attached, the common case of checking the committed network alone.
  std::vector<std::vector<PlatformModel::ModulePort>> attached;
  if (!modules.empty()) {
    attached.resize(nodes_.size());
  }
  for (size_t m = 0; m < modules.size(); ++m) {
    auto it = by_name_.find(modules[m].platform);
    if (it == by_name_.end()) {
      continue;
    }
    std::vector<PlatformModel::ModulePort>& ports = attached[it->second];
    slots[m] = {static_cast<int>(it->second),
                static_cast<int>(nodes_[it->second].neighbors.size() + ports.size())};
    ports.push_back({modules[m].addr.value(), slots[m].port});
  }
  auto shared_pinholes = std::make_shared<const std::vector<FlowSpec>>(std::move(pinholes));

  symexec::SymGraph graph;
  size_t graph_nodes = nodes_.size();
  for (const ModuleAttachment& module : modules) {
    graph_nodes += module.fragment != nullptr ? module.fragment->graph.node_count() : 0;
  }
  graph.Reserve(graph_nodes);

  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::shared_ptr<SymbolicModel> model;
    switch (node.kind) {
      case NodeKind::kInternet:
        model = SharedModel<InternetModel>();
        break;
      case NodeKind::kClientSubnet:
        model = std::make_shared<ClientSubnetModel>(node.subnet);
        break;
      case NodeKind::kServer:
        model = SharedModel<ServerModel>();
        break;
      case NodeKind::kRouter: {
        std::vector<RouterModel::PortRoute> routes;
        for (const RouteEntry& route : node.routes) {
          int port = PortOf(node.name, route.next_hop);
          if (port >= 0) {
            routes.push_back({route.prefix, port, route.match});
          }
        }
        int default_port =
            node.default_route.empty() ? -1 : PortOf(node.name, node.default_route);
        model = std::make_shared<RouterModel>(std::move(routes), default_port);
        break;
      }
      case NodeKind::kMiddlebox:
        switch (node.middlebox) {
          case MiddleboxKind::kStatefulFirewall:
            model = std::make_shared<StatefulFirewallModel>(node.allowed_outbound_protos,
                                                            shared_pinholes);
            break;
          case MiddleboxKind::kHttpOptimizer:
            model = SharedModel<HttpOptimizerModel>();
            break;
          case MiddleboxKind::kWebCache:
          case MiddleboxKind::kPassthrough:
            model = SharedModel<PassthroughMiddleboxModel>();
            break;
        }
        break;
      case NodeKind::kPlatform:
        model = std::make_shared<PlatformModel>(
            attached.empty() ? std::vector<PlatformModel::ModulePort>() : std::move(attached[i]),
            static_cast<int>(node.neighbors.size()));
        break;
    }
    graph.AddNode(node.name, std::move(model));
  }

  // Wire links: port i on a node leads to the i-th neighbor; the reverse edge
  // enters the neighbor on the port that points back. Graph ids follow the
  // order of nodes_.
  for (size_t from = 0; from < nodes_.size(); ++from) {
    const Node& node = nodes_[from];
    for (size_t i = 0; i < node.neighbors.size(); ++i) {
      int to = static_cast<int>(by_name_.at(node.neighbors[i]));
      int back_port = PortOf(node.neighbors[i], node.name);
      graph.Connect(static_cast<int>(from), static_cast<int>(i), to, back_port);
    }
  }

  // Merge each module and wire it to its port: traffic for the module enters
  // its entry, and every module egress returns to the platform on that port.
  for (size_t m = 0; m < modules.size(); ++m) {
    const ModuleFragment* fragment = modules[m].fragment;
    if (fragment == nullptr) {
      continue;
    }
    int offset = graph.Merge(fragment->graph, modules[m].id);
    const Slot& slot = slots[m];
    if (slot.node < 0) {
      continue;
    }
    if (fragment->entry >= 0) {
      graph.Connect(slot.node, slot.port, offset + fragment->entry, 0);
    }
    for (int exit : fragment->exits) {
      graph.Connect(offset + exit, 0, slot.node, slot.port);
    }
  }
  return graph;
}

Network Network::MakeFigure3() {
  Network net;
  Node internet;
  internet.name = "internet";
  internet.kind = NodeKind::kInternet;
  net.AddNode(internet);

  Node border;
  border.name = "border";
  border.kind = NodeKind::kRouter;
  net.AddNode(border);

  Node nat_fw;
  nat_fw.name = "nat_firewall";
  nat_fw.kind = NodeKind::kMiddlebox;
  nat_fw.middlebox = MiddleboxKind::kStatefulFirewall;
  nat_fw.allowed_outbound_protos = {kProtoUdp, kProtoTcp};
  net.AddNode(nat_fw);

  Node cache;
  cache.name = "web_cache";
  cache.kind = NodeKind::kMiddlebox;
  cache.middlebox = MiddleboxKind::kWebCache;
  net.AddNode(cache);

  Node optimizer;
  optimizer.name = "http_optimizer";
  optimizer.kind = NodeKind::kMiddlebox;
  optimizer.middlebox = MiddleboxKind::kHttpOptimizer;
  net.AddNode(optimizer);

  Node access;
  access.name = "access";
  access.kind = NodeKind::kRouter;
  net.AddNode(access);

  Node clients;
  clients.name = "clients";
  clients.kind = NodeKind::kClientSubnet;
  clients.subnet = Ipv4Prefix::MustParse("10.10.0.0/16");
  net.AddNode(clients);

  // r2 sits between the HTTP optimizer and the web cache so platform2 can
  // hang off a routing-capable node on the HTTP path.
  Node r2;
  r2.name = "r2";
  r2.kind = NodeKind::kRouter;
  net.AddNode(r2);

  auto make_platform = [&net](const std::string& name, const std::string& pool) {
    Node platform;
    platform.name = name;
    platform.kind = NodeKind::kPlatform;
    platform.address_pool = Ipv4Prefix::MustParse(pool);
    net.AddNode(platform);
  };
  make_platform("platform1", "192.168.1.0/24");  // behind the NAT: unreachable from outside
  make_platform("platform2", "192.168.2.0/24");  // on the HTTP path, behind the web cache
  make_platform("platform3", "172.16.3.0/24");   // directly reachable from the Internet

  // Wiring. Two-port middleboxes: the first link added is the *inside*
  // (client-facing) port 0, the second the *outside* port 1.
  net.AddLink("access", "nat_firewall");    // nat_firewall port 0 = inside
  net.AddLink("nat_firewall", "border");    // nat_firewall port 1 = outside
  net.AddLink("access", "http_optimizer");  // optimizer port 0 = inside
  net.AddLink("http_optimizer", "r2");      // optimizer port 1 = outside
  net.AddLink("r2", "web_cache");           // cache port 0 = inside
  net.AddLink("web_cache", "border");       // cache port 1 = outside
  net.AddLink("access", "clients");
  net.AddLink("internet", "border");
  net.AddLink("access", "platform1");
  net.AddLink("r2", "platform2");
  net.AddLink("border", "platform3");

  // Routing. The border router policy-routes inbound HTTP (src port 80) via
  // the cache/optimizer path — the operator policy Figure 3 illustrates —
  // and everything else toward clients via the NAT&firewall.
  Node* border_node = net.FindMutable("border");
  border_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "web_cache",
                                 FlowSpec::MustParse("tcp src port 80")});
  border_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "nat_firewall", {}});
  border_node->routes.push_back({Ipv4Prefix::MustParse("172.16.3.0/24"), "platform3", {}});
  // Platform 2 sits on the HTTP path and is only reachable for TCP traffic —
  // this is why the paper's UDP batcher cannot be placed there (§4.5).
  border_node->routes.push_back({Ipv4Prefix::MustParse("192.168.2.0/24"), "web_cache",
                                 FlowSpec::MustParse("tcp")});
  border_node->default_route = "internet";

  Node* r2_node = net.FindMutable("r2");
  r2_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "http_optimizer", {}});
  r2_node->routes.push_back({Ipv4Prefix::MustParse("192.168.2.0/24"), "platform2", {}});
  r2_node->default_route = "web_cache";

  Node* access_node = net.FindMutable("access");
  access_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "clients", {}});
  access_node->routes.push_back({Ipv4Prefix::MustParse("192.168.1.0/24"), "platform1", {}});
  access_node->routes.push_back(
      {Ipv4Prefix::MustParse("192.168.2.0/24"), "http_optimizer", {}});
  access_node->default_route = "nat_firewall";
  return net;
}

Network Network::MakeMultiPop(int pops) {
  Network net;
  Node internet;
  internet.name = "internet";
  internet.kind = NodeKind::kInternet;
  net.AddNode(internet);

  Node core;
  core.name = "core";
  core.kind = NodeKind::kRouter;
  net.AddNode(core);
  net.AddLink("internet", "core");

  for (int pop = 0; pop < pops; ++pop) {
    std::string id = std::to_string(pop);
    Node access;
    access.name = "access" + id;
    access.kind = NodeKind::kRouter;
    net.AddNode(access);

    Node clients;
    clients.name = "clients" + id;
    clients.kind = NodeKind::kClientSubnet;
    clients.subnet = Ipv4Prefix(Ipv4Address(10, static_cast<uint8_t>(pop + 1), 0, 0), 16);
    net.AddNode(clients);

    Node platform;
    platform.name = "platform" + id;
    platform.kind = NodeKind::kPlatform;
    platform.address_pool =
        Ipv4Prefix(Ipv4Address(172, 16, static_cast<uint8_t>(pop + 10), 0), 24);
    net.AddNode(platform);

    net.AddLink("core", access.name);
    net.AddLink(access.name, clients.name);
    net.AddLink(access.name, platform.name);

    Node* access_node = net.FindMutable(access.name);
    access_node->routes.push_back({clients.subnet, clients.name, {}});
    access_node->routes.push_back({platform.address_pool, platform.name, {}});
    access_node->default_route = "core";

    Node* core_node = net.FindMutable("core");
    core_node->routes.push_back({clients.subnet, access.name, {}});
    core_node->routes.push_back({platform.address_pool, access.name, {}});
  }
  net.FindMutable("core")->default_route = "internet";
  return net;
}

Network Network::MakeScalingTopology(int n_middleboxes, uint64_t seed) {
  Network net;
  sim::Rng rng(seed);

  Node internet;
  internet.name = "internet";
  internet.kind = NodeKind::kInternet;
  net.AddNode(internet);

  Node clients;
  clients.name = "clients";
  clients.kind = NodeKind::kClientSubnet;
  clients.subnet = Ipv4Prefix::MustParse("10.10.0.0/16");
  net.AddNode(clients);

  Node platform;
  platform.name = "platform1";
  platform.kind = NodeKind::kPlatform;
  platform.address_pool = Ipv4Prefix::MustParse("172.16.3.0/24");
  net.AddNode(platform);

  // A chain of middleboxes between the Internet and the access router; a mix
  // of pass-through boxes and HTTP optimizers (the firewall would block the
  // unconstrained reach checks the benchmark runs, so the chain mirrors the
  // "many waypoints" structure that drives checking cost).
  std::string prev = "internet";
  for (int i = 0; i < n_middleboxes; ++i) {
    Node mbox;
    mbox.name = "mbox" + std::to_string(i);
    mbox.kind = NodeKind::kMiddlebox;
    mbox.middlebox =
        rng.Bernoulli(0.3) ? MiddleboxKind::kHttpOptimizer : MiddleboxKind::kPassthrough;
    net.AddNode(mbox);
    // Middlebox inside port faces the access/client side, which is the *next*
    // link we add; so wire outside (prev, toward internet) second. Add the
    // inside link after the chain is extended below.
    net.AddLink(mbox.name, prev);  // port 0 of mbox faces prev for now
    prev = mbox.name;
  }

  Node access;
  access.name = "access";
  access.kind = NodeKind::kRouter;
  net.AddNode(access);
  net.AddLink(access.name, prev);
  net.AddLink("access", "clients");
  net.AddLink("access", "platform1");

  Node* access_node = net.FindMutable("access");
  access_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "clients", {}});
  access_node->routes.push_back({Ipv4Prefix::MustParse("172.16.3.0/24"), "platform1", {}});
  access_node->default_route = prev;
  return net;
}

}  // namespace innet::topology
