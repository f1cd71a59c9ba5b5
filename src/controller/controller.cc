#include "src/controller/controller.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>

#include "src/controller/stock_modules.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/symexec/click_models.h"
#include "src/symexec/path_digest.h"

namespace innet::controller {

using policy::ReachChecker;
using policy::ReachSpec;
using symexec::SymGraph;
using symexec::ValueSet;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// The graph node names of every element of module `module_id`.
std::vector<std::string> ModuleNodeNames(const std::string& module_id,
                                         const click::ConfigGraph& config) {
  std::vector<std::string> names;
  names.reserve(config.elements.size());
  for (const click::ElementDecl& decl : config.elements) {
    names.push_back(module_id + "/" + decl.name);
  }
  return names;
}

// The fragment the verification graph embeds: the explored model with each
// exit's sink turned into a pass-through, whose output 0 the network wires
// back into the hosting platform.
std::shared_ptr<const topology::ModuleFragment> MakeFragment(
    symexec::ModuleExploration exploration) {
  auto fragment = std::make_shared<topology::ModuleFragment>();
  fragment->graph = std::move(exploration.graph);
  if (!exploration.sources.empty()) {
    fragment->entry = exploration.sources[0];
  }
  auto passthrough = std::make_shared<symexec::PassthroughModel>();
  for (int exit : exploration.sinks) {
    fragment->graph.SetModel(exit, passthrough);
  }
  fragment->exits = std::move(exploration.sinks);
  return fragment;
}

// The firewall pinholes a deployment opens: one flow spec per explored egress
// flow whose destination is a fixed address the requester whitelisted.
// Symbolic execution tells the controller exactly which flows the module
// emits, so the operator can open precisely those (§4.3's "the controller
// alters the operator's routing configuration"). Flows with runtime-decided
// destinations yield no pinhole.
std::vector<FlowSpec> AuthorizedPinholes(const symexec::ModuleExploration& exploration,
                                         const std::vector<Ipv4Address>& whitelist) {
  std::vector<FlowSpec> pinholes;
  for (const symexec::SymbolicPacket& packet : exploration.delivered) {
    ValueSet dst = packet.PossibleValues(HeaderField::kIpDst);
    if (!dst.IsSingle()) {
      continue;
    }
    Ipv4Address addr(static_cast<uint32_t>(dst.SingleValue()));
    if (std::find(whitelist.begin(), whitelist.end(), addr) == whitelist.end()) {
      continue;
    }
    std::string text = "dst host " + addr.ToString();
    ValueSet proto = packet.PossibleValues(HeaderField::kProto);
    if (proto.IsSingle()) {
      uint64_t p = proto.SingleValue();
      if (p == kProtoTcp) {
        text = "tcp " + text;
      } else if (p == kProtoUdp) {
        text = "udp " + text;
      } else if (p == kProtoIcmp) {
        text = "icmp " + text;
      }
    }
    ValueSet port = packet.PossibleValues(HeaderField::kDstPort);
    if (port.IsSingle()) {
      text += " dst port " + std::to_string(port.SingleValue());
    }
    if (auto spec = FlowSpec::Parse(text)) {
      pinholes.push_back(std::move(*spec));
    }
  }
  return pinholes;
}

// Parses the request's reach statements; false and *error ("bad requirement:
// ...") on the first that does not parse.
bool ParseRequirements(const ClientRequest& request, std::vector<ReachSpec>* specs,
                       std::string* error) {
  for (const std::string& statement : policy::SplitReachStatements(request.requirements)) {
    auto spec = ReachSpec::Parse(statement, error);
    if (!spec) {
      *error = "bad requirement: " + *error;
      return false;
    }
    specs->push_back(std::move(*spec));
  }
  return true;
}

}  // namespace

Controller::Controller(topology::Network network) : network_(std::move(network)) {}

bool Controller::AddOperatorPolicy(const std::string& reach_statement, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  auto spec = ReachSpec::Parse(reach_statement, error);
  if (!spec) {
    return false;
  }
  operator_policies_.push_back(std::move(*spec));
  return true;
}

std::optional<Ipv4Address> Controller::NextAddress(const topology::Node& platform) const {
  // Addresses .10 upward in the platform pool; skip those already assigned.
  for (uint32_t offset = 10; offset < 250; ++offset) {
    Ipv4Address candidate(platform.address_pool.base().value() + offset);
    if (by_addr_.count(candidate.value()) == 0) {
      return candidate;
    }
  }
  return std::nullopt;
}

const Deployment* Controller::FindDeployment(const std::string& module_id) const {
  auto it = by_module_.find(module_id);
  return it == by_module_.end() ? nullptr : &deployments_[it->second];
}

void Controller::Commit(Deployment deployment) {
  size_t index = deployments_.size();
  by_module_.try_emplace(deployment.module_id, index);
  by_addr_.try_emplace(deployment.addr.value(), index);
  deployments_.push_back(std::move(deployment));
}

void Controller::Reindex() {
  by_module_.clear();
  by_addr_.clear();
  for (size_t i = 0; i < deployments_.size(); ++i) {
    by_module_.try_emplace(deployments_[i].module_id, i);
    by_addr_.try_emplace(deployments_[i].addr.value(), i);
  }
}

std::optional<Controller::Trial> Controller::MakeTrial(const ClientRequest& request,
                                                       const std::string& module_id,
                                                       const std::string& platform,
                                                       Ipv4Address addr,
                                                       std::string* error) const {
  std::string config_text = SubstituteSelf(request.click_config, addr);
  auto config = click::ConfigGraph::Parse(config_text, error);
  std::optional<symexec::ModuleExploration> exploration;
  if (config) {
    exploration = symexec::ExploreModule(*config, error);
  }
  if (!exploration) {
    *error = "bad configuration: " + *error;
    return std::nullopt;
  }
  Trial trial;
  trial.security = ClassifyModuleFlows(
      *exploration, {request.requester, addr, request.whitelist, request.owned_prefixes});
  Deployment& dep = trial.deployment;
  dep.module_id = module_id;
  dep.client_id = request.client_id;
  dep.platform = platform;
  dep.addr = addr;
  dep.sandboxed = trial.security.verdict == Verdict::kNeedsSandbox;
  dep.pinholes = AuthorizedPinholes(*exploration, request.whitelist);
  dep.path_digest = symexec::ComputePathDigest(*config, *exploration).Encode();
  dep.fragment = MakeFragment(std::move(*exploration));
  dep.config = std::move(*config);
  dep.config_text = std::move(config_text);
  return trial;
}

bool Controller::CheckTrial(const Trial& trial, const std::vector<ReachSpec>* client_specs,
                            DeployOutcome* outcome, uint64_t* graph_nodes,
                            std::string* failure) const {
  // The graph is built before the verdict is read, so a candidate the
  // security rules reject still counts its graph as verification work.
  std::optional<SymGraph> graph;
  if (client_specs != nullptr) {
    auto t_build = std::chrono::steady_clock::now();
    std::string error;
    graph = BuildVerificationGraph(&trial.deployment, &error);
    *graph_nodes += graph->node_count();
    outcome->model_build_ms += MillisSince(t_build);
  }

  // Checking: security rules, then operator policy, then client
  // requirements — all on this candidate placement.
  auto t_check = std::chrono::steady_clock::now();
  outcome->security = trial.security;
  bool ok = trial.security.verdict != Verdict::kRejected;
  if (!ok) {
    *failure = "security: " + trial.security.Summary();
  } else if (graph) {
    std::string reach_failure;
    ok = CheckAllRequirements(*graph, trial.deployment, operator_policies_, &reach_failure,
                              &outcome->engine_steps, /*via_module=*/false) &&
         CheckAllRequirements(*graph, trial.deployment, *client_specs, &reach_failure,
                              &outcome->engine_steps, /*via_module=*/true);
    if (!ok) {
      *failure = "on " + trial.deployment.platform + ": " + reach_failure;
    }
  }
  outcome->check_ms += MillisSince(t_check);
  return ok;
}

symexec::SymGraph Controller::BuildVerificationGraph(const Deployment* trial,
                                                     std::string* error) const {
  // Every committed module, then the trial one: that order numbers their
  // ports on each platform.
  std::vector<topology::ModuleAttachment> modules;
  std::vector<FlowSpec> pinholes;
  modules.reserve(deployments_.size() + 1);
  size_t n_pinholes = trial != nullptr ? trial->pinholes.size() : 0;
  for (const Deployment& dep : deployments_) {
    n_pinholes += dep.pinholes.size();
  }
  pinholes.reserve(n_pinholes);
  auto attach = [&](const Deployment& dep) {
    if (dep.fragment == nullptr) {
      // Only a Deployment made outside MakeTrial can lack one.
      *error = "module " + dep.module_id + " has no symbolic model";
    }
    modules.push_back({dep.module_id, dep.platform, dep.addr, dep.fragment.get()});
    pinholes.insert(pinholes.end(), dep.pinholes.begin(), dep.pinholes.end());
  };
  for (const Deployment& dep : deployments_) {
    attach(dep);
  }
  if (trial != nullptr) {
    attach(*trial);
  }
  return network_.BuildSymGraph(modules, std::move(pinholes));
}

policy::NodeResolver Controller::MakeResolver(const Deployment* trial) const {
  return [this, trial](const std::string& spec) -> std::vector<std::string> {
    const topology::Network& net = network_;
    if (spec == "internet") {
      std::vector<std::string> names;
      for (const topology::Node& node : net.nodes()) {
        if (node.kind == topology::NodeKind::kInternet) {
          names.push_back(node.name);
        }
      }
      return names;
    }
    if (spec == "client" || spec == "clients") {
      std::vector<std::string> names;
      for (const topology::Node& node : net.nodes()) {
        if (node.kind == topology::NodeKind::kClientSubnet) {
          names.push_back(node.name);
        }
      }
      return names;
    }
    // Sentinel: any element of the module under deployment.
    if (spec == "__module_any__") {
      if (trial == nullptr) {
        return {};
      }
      return ModuleNodeNames(trial->module_id, trial->config);
    }
    // Fully-qualified graph node names ("module-id/element") pass through
    // untouched — but "10.3.0.0/16" is a prefix, handled below.
    if (spec.find('/') != std::string::npos && !Ipv4Prefix::Parse(spec).has_value()) {
      return {spec};
    }
    // Module element reference "module:element[:port]". The first segment
    // may name a committed module id; otherwise it denotes the module under
    // deployment.
    size_t colon = spec.find(':');
    if (colon != std::string::npos) {
      std::string owner = spec.substr(0, colon);
      std::string element = spec.substr(colon + 1);
      size_t colon2 = element.find(':');
      if (colon2 != std::string::npos) {
        element = element.substr(0, colon2);  // the trailing :port is accepted and ignored
      }
      if (by_module_.count(owner) != 0) {
        return {owner + "/" + element};
      }
      if (trial != nullptr) {
        return {trial->module_id + "/" + element};
      }
      return {};
    }
    // IP address or prefix: the owning endpoint, or a deployed module (any
    // of whose elements counts as a waypoint hit).
    if (auto addr = Ipv4Address::Parse(spec)) {
      if (trial != nullptr && *addr == trial->addr) {
        return ModuleNodeNames(trial->module_id, trial->config);
      }
      auto deployed = by_addr_.find(addr->value());
      if (deployed != by_addr_.end()) {
        const Deployment& dep = deployments_[deployed->second];
        return ModuleNodeNames(dep.module_id, dep.config);
      }
      if (const topology::Node* owner = net.OwnerOf(*addr)) {
        return {owner->name};
      }
      return {};
    }
    if (auto prefix = Ipv4Prefix::Parse(spec)) {
      for (const topology::Node& node : net.nodes()) {
        if (node.kind == topology::NodeKind::kClientSubnet &&
            node.subnet.Overlaps(*prefix)) {
          return {node.name};
        }
      }
      return {};
    }
    // A bare element name of the trial module, or a topology node name.
    if (trial != nullptr && trial->config.FindElement(spec) != nullptr) {
      return {trial->module_id + "/" + spec};
    }
    if (net.Find(spec) != nullptr) {
      return {spec};
    }
    return {};
  };
}

bool Controller::CheckAllRequirements(const SymGraph& graph, const Deployment& trial,
                                      const std::vector<ReachSpec>& specs, std::string* failure,
                                      uint64_t* steps, bool via_module) const {
  symexec::EngineOptions options;
  // Long middlebox chains (the Figure 10 scaling topologies) need path
  // budgets proportional to the network diameter.
  options.max_hops =
      std::max(256, static_cast<int>(graph.node_count()) * 2 + 64);
  ReachChecker checker(&graph, MakeResolver(&trial), options);
  for (const ReachSpec& spec : specs) {
    std::optional<ReachSpec> effective;
    if (via_module) {
      // A client requirement is about *its* processing: the flow must pass
      // through the module being deployed (this is what makes unreachable
      // platforms — Figure 3's platforms 1 and 2 for the UDP batcher — fail).
      effective = spec;
      policy::ReachNode module_waypoint;
      module_waypoint.spec = "__module_any__";
      effective->waypoints.insert(effective->waypoints.begin(), std::move(module_waypoint));
    }
    policy::ReachCheckResult result = checker.Check(effective ? *effective : spec);
    *steps += result.engine_steps;
    if (!result.satisfied) {
      *failure = spec.ToString() + ": " + result.explanation;
      return false;
    }
  }
  return true;
}

void Controller::RecordDeployMetrics(DeployOutcome* outcome, uint64_t graph_nodes) const {
  outcome->sim_verify_ns = verify_cost_.ns_per_engine_step * outcome->engine_steps +
                           verify_cost_.ns_per_graph_node * graph_nodes;
  // Instruments are resolved once, each on its first use (as the per-call
  // lookups created them), so metric dumps are unchanged.
  auto& registry = obs::Registry();
  if (outcome->accepted) {
    static obs::Counter* const accepted =
        registry.GetCounter("innet_controller_requests_total", {{"outcome", "accepted"}});
    accepted->Increment();
  } else {
    static obs::Counter* const rejected =
        registry.GetCounter("innet_controller_requests_total", {{"outcome", "rejected"}});
    rejected->Increment();
  }
  static obs::Counter* const steps = registry.GetCounter("innet_controller_engine_steps_total");
  static obs::Histogram* const latency = registry.GetHistogram(
      "innet_controller_verify_latency_ms", {}, obs::ExponentialBuckets(0.25, 2.0, 16));
  steps->Increment(outcome->engine_steps);
  latency->Observe(static_cast<double>(outcome->sim_verify_ns) / 1e6);
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kVerifyFinish, "controller",
                            outcome->accepted ? "accepted" : "rejected: " + outcome->reason,
                            static_cast<int64_t>(outcome->sim_verify_ns));
  }
}

DeployOutcome Controller::Deploy(const ClientRequest& request) {
  return Deploy(request, {});
}

DeployOutcome Controller::Deploy(const ClientRequest& request,
                                 const std::vector<std::string>& candidate_platforms,
                                 bool candidates_ranked) {
  DeployOutcome outcome;
  uint64_t graph_nodes = 0;
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kVerifyStart, "controller", request.client_id);
  }

  std::vector<ReachSpec> client_specs;
  if (!ParseRequirements(request, &client_specs, &outcome.reason)) {
    RecordDeployMetrics(&outcome, graph_nodes);
    return outcome;
  }

  std::vector<const topology::Node*> platforms = network_.Platforms();
  if (!failed_platforms_.empty()) {
    platforms.erase(std::remove_if(platforms.begin(), platforms.end(),
                                   [this](const topology::Node* node) {
                                     return IsPlatformFailed(node->name);
                                   }),
                    platforms.end());
  }
  // Candidate restriction: the scheduler's policy-ranked list, or the
  // request's pinned platform, narrows the search and fixes its order. The
  // verification loop below is unchanged — the scheduler proposes, the
  // verifier disposes.
  bool keep_caller_order = false;
  {
    std::vector<std::string> ordered = candidate_platforms;
    if (ordered.empty() && !request.pinned_platform.empty()) {
      ordered.push_back(request.pinned_platform);
    }
    if (!ordered.empty()) {
      keep_caller_order = candidates_ranked;
      std::vector<const topology::Node*> chosen;
      for (const std::string& name : ordered) {
        for (const topology::Node* node : platforms) {
          if (node->name == name) {
            chosen.push_back(node);
            break;
          }
        }
      }
      platforms = std::move(chosen);
    }
  }
  if (platforms.empty()) {
    outcome.reason = "no processing platforms available";
    RecordDeployMetrics(&outcome, graph_nodes);
    return outcome;
  }

  // Geolocation-style placement: prefer platforms close (in hops) to the
  // traffic sources the client's requirements name — the mechanism behind
  // the CDN/DNS use cases (§8). Ties and requirement-free requests keep the
  // declaration order. A policy-ranked candidate list keeps its order.
  if (!keep_caller_order) {
    policy::NodeResolver resolver = MakeResolver(nullptr);
    std::vector<std::string> anchors;
    for (const ReachSpec& spec : client_specs) {
      for (const std::string& node : resolver(spec.from.spec)) {
        anchors.push_back(node);
      }
    }
    if (!anchors.empty()) {
      auto distance = [&](const topology::Node* platform) {
        int best = INT_MAX;
        for (const std::string& anchor : anchors) {
          int d = network_.HopDistance(anchor, platform->name);
          if (d >= 0 && d < best) {
            best = d;
          }
        }
        return best;
      };
      std::stable_sort(platforms.begin(), platforms.end(),
                       [&](const topology::Node* a, const topology::Node* b) {
                         return distance(a) < distance(b);
                       });
    }
  }

  std::string last_failure = "no platform satisfied the request";
  for (const topology::Node* platform : platforms) {
    std::optional<Ipv4Address> addr = NextAddress(*platform);
    if (!addr) {
      continue;  // pool exhausted
    }

    // "Compilation": parse the configuration, explore its model and build
    // the verification graph; then the checks.
    auto t_build = std::chrono::steady_clock::now();
    std::optional<Trial> trial =
        MakeTrial(request, request.client_id + "-m" + std::to_string(next_module_seq_),
                  platform->name, *addr, &outcome.reason);
    outcome.model_build_ms += MillisSince(t_build);
    if (!trial) {
      RecordDeployMetrics(&outcome, graph_nodes);
      return outcome;
    }
    if (!CheckTrial(*trial, &client_specs, &outcome, &graph_nodes, &last_failure)) {
      continue;
    }

    outcome.accepted = true;
    outcome.module_id = trial->deployment.module_id;
    outcome.platform = trial->deployment.platform;
    outcome.module_addr = trial->deployment.addr;
    outcome.sandboxed = trial->deployment.sandboxed;
    outcome.reason = "deployed";
    Commit(std::move(trial->deployment));
    ++next_module_seq_;
    RecordDeployMetrics(&outcome, graph_nodes);
    return outcome;
  }

  outcome.reason = last_failure;
  RecordDeployMetrics(&outcome, graph_nodes);
  return outcome;
}

bool Controller::RestoreDeployment(const ClientRequest& request, const std::string& module_id,
                                   const std::string& platform, Ipv4Address addr, bool reverify,
                                   std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  if (FindDeployment(module_id) != nullptr) {
    return true;  // already committed — recovery replayed an applied entry
  }
  if (network_.Find(platform) == nullptr) {
    *error = "unknown platform " + platform;
    return false;
  }

  std::vector<ReachSpec> client_specs;
  if (reverify && !ParseRequirements(request, &client_specs, error)) {
    return false;
  }
  std::optional<Trial> trial = MakeTrial(request, module_id, platform, addr, error);
  if (!trial) {
    return false;
  }
  DeployOutcome work;  // a restore reports no verification work
  uint64_t graph_nodes = 0;
  if (!CheckTrial(*trial, reverify ? &client_specs : nullptr, &work, &graph_nodes, error)) {
    return false;
  }

  Commit(std::move(trial->deployment));
  // Keep fresh module ids unique: skip the sequence number the restored id
  // embeds ("<client>-m<seq>") so post-recovery deploys cannot collide.
  size_t marker = module_id.rfind("-m");
  if (marker != std::string::npos) {
    const char* end = module_id.data() + module_id.size();
    uint64_t seq = 0;
    auto [last, status] = std::from_chars(module_id.data() + marker + 2, end, seq);
    if (status == std::errc() && last == end && seq >= next_module_seq_) {
      next_module_seq_ = seq + 1;
    }
  }
  return true;
}

bool Controller::Kill(const std::string& module_id) {
  auto it = by_module_.find(module_id);
  if (it == by_module_.end()) {
    return false;
  }
  deployments_.erase(deployments_.begin() + static_cast<ptrdiff_t>(it->second));
  Reindex();
  return true;
}

}  // namespace innet::controller
