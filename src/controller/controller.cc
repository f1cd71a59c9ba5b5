#include "src/controller/controller.h"

#include <algorithm>
#include <climits>
#include <chrono>

#include "src/controller/stock_modules.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/symexec/click_models.h"
#include "src/symexec/path_digest.h"

namespace innet::controller {

using policy::ReachChecker;
using policy::ReachSpec;
using symexec::SymGraph;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

SecurityOptions SecurityOptionsFor(const ClientRequest& request, Ipv4Address module_addr) {
  SecurityOptions options;
  options.requester = request.requester;
  options.module_addr = module_addr;
  options.whitelist = request.whitelist;
  options.owned_prefixes = request.owned_prefixes;
  return options;
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

// Builds the fragment of `config`; nullptr and *error when it cannot be
// modeled.
std::shared_ptr<const ModuleFragment> BuildModuleFragment(const click::ConfigGraph& config,
                                                          std::string* error) {
  auto graph = symexec::BuildClickModel(config, error, /*embedded=*/true);
  if (!graph) {
    return nullptr;
  }
  auto fragment = std::make_shared<ModuleFragment>();
  fragment->graph = std::move(*graph);
  std::vector<std::string> sources = symexec::ModuleSources(config);
  if (!sources.empty()) {
    fragment->entry = fragment->graph.FindNode(sources[0]);
  }
  for (const std::string& sink : symexec::ModuleSinks(config)) {
    int exit = fragment->graph.FindNode(sink);
    if (exit >= 0) {
      fragment->exits.push_back(exit);
    }
  }
  return fragment;
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

std::optional<Deployment> Controller::MakeTrial(const ClientRequest& request,
                                                const std::string& module_id,
                                                const std::string& platform, Ipv4Address addr,
                                                std::string* error) const {
  std::string config_text = SubstituteSelf(request.click_config, addr);
  auto config = click::ConfigGraph::Parse(config_text, error);
  if (!config) {
    return std::nullopt;
  }
  Deployment trial;
  trial.module_id = module_id;
  trial.client_id = request.client_id;
  trial.platform = platform;
  trial.addr = addr;
  // Symbolic execution tells the controller exactly which flows the module
  // emits; it opens firewall pinholes for precisely those (and only when
  // the destination explicitly authorized them via the whitelist).
  for (FlowSpec& pinhole : DeriveEgressPinholes(*config, error)) {
    bool authorized = false;
    for (const AddrPredicate& pred : pinhole.addr_predicates()) {
      for (Ipv4Address owned : request.whitelist) {
        if (pred.prefix.Contains(owned)) {
          authorized = true;
        }
      }
    }
    if (authorized) {
      trial.pinholes.push_back(std::move(pinhole));
    }
  }
  trial.fragment = BuildModuleFragment(*config, error);
  trial.config = std::move(*config);
  trial.config_text = std::move(config_text);
  return trial;
}

symexec::SymGraph Controller::BuildVerificationGraph(const Deployment* trial,
                                                     std::string* error) {
  // Attach every committed module plus the trial one, then merge their
  // fragments.
  network_.ClearAttachments();
  network_.ClearFirewallPinholes();
  std::vector<const Deployment*> all;
  all.reserve(deployments_.size() + 1);
  for (const Deployment& dep : deployments_) {
    all.push_back(&dep);
  }
  if (trial != nullptr) {
    all.push_back(trial);
  }
  for (const Deployment* dep : all) {
    for (const FlowSpec& pinhole : dep->pinholes) {
      network_.AddFirewallPinhole(pinhole);
    }
  }
  for (const Deployment* dep : all) {
    network_.AttachModule({dep->platform, dep->addr});
  }

  SymGraph graph = network_.BuildSymGraph();
  for (const Deployment* dep : all) {
    if (dep->fragment == nullptr) {
      *error = "module " + dep->module_id + " has no symbolic model";
      continue;  // committed deployments were validated before; trial caller checks *error
    }
    const ModuleFragment& fragment = *dep->fragment;
    int offset = graph.Merge(fragment.graph, dep->module_id);

    // Wire the platform switch to the module. The platform's module ports
    // start after its physical links, in attachment order.
    const topology::Node* platform = network_.Find(dep->platform);
    int platform_id = graph.FindNode(dep->platform);
    if (platform == nullptr || platform_id < 0) {
      continue;
    }
    int module_port = static_cast<int>(platform->neighbors.size());
    for (const auto& att : network_.attachments()) {
      if (att.platform == dep->platform) {
        if (att.addr == dep->addr) {
          break;
        }
        ++module_port;
      }
    }
    if (fragment.entry >= 0) {
      graph.Connect(platform_id, module_port, offset + fragment.entry, 0);
    }
    // Every module egress returns to the platform on the module's port.
    for (int exit : fragment.exits) {
      graph.Connect(offset + exit, 0, platform_id, module_port);
    }
  }
  network_.ClearAttachments();
  return graph;
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
  auto t_start = std::chrono::steady_clock::now();
  uint64_t graph_nodes = 0;
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kVerifyStart, "controller", request.client_id);
  }

  // Parse the client's requirements once.
  std::vector<ReachSpec> client_specs;
  for (const std::string& statement : policy::SplitReachStatements(request.requirements)) {
    std::string error;
    auto spec = ReachSpec::Parse(statement, &error);
    if (!spec) {
      outcome.reason = "bad requirement: " + error;
      RecordDeployMetrics(&outcome, graph_nodes);
      return outcome;
    }
    client_specs.push_back(std::move(*spec));
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

    // "Compilation": parse the configuration and build its model.
    auto t_build = std::chrono::steady_clock::now();
    std::string error;
    std::optional<Deployment> trial =
        MakeTrial(request, request.client_id + "-m" + std::to_string(next_module_seq_),
                  platform->name, *addr, &error);
    if (!trial) {
      outcome.reason = "bad configuration: " + error;
      RecordDeployMetrics(&outcome, graph_nodes);
      return outcome;
    }
    SymGraph graph = BuildVerificationGraph(&*trial, &error);
    graph_nodes += graph.node_count();
    outcome.model_build_ms += MillisSince(t_build);

    // Checking: security rules, then operator policy, then client
    // requirements — all on this candidate placement.
    auto t_check = std::chrono::steady_clock::now();
    SecurityReport security =
        CheckModuleSecurity(trial->config, SecurityOptionsFor(request, *addr), &error);
    outcome.security = security;
    if (security.verdict == Verdict::kRejected) {
      outcome.check_ms += MillisSince(t_check);
      last_failure = "security: " + security.Summary();
      continue;
    }

    std::string failure;
    bool ok = CheckAllRequirements(graph, *trial, operator_policies_, &failure,
                                   &outcome.engine_steps, /*via_module=*/false);
    if (ok) {
      ok = CheckAllRequirements(graph, *trial, client_specs, &failure, &outcome.engine_steps,
                                /*via_module=*/true);
    }
    outcome.check_ms += MillisSince(t_check);
    if (!ok) {
      last_failure = "on " + platform->name + ": " + failure;
      continue;
    }

    // Commit.
    trial->sandboxed = security.verdict == Verdict::kNeedsSandbox;
    trial->path_digest = symexec::ComputePathDigest(trial->config).Encode();
    outcome.accepted = true;
    outcome.module_id = trial->module_id;
    outcome.platform = trial->platform;
    outcome.module_addr = trial->addr;
    outcome.sandboxed = trial->sandboxed;
    outcome.reason = "deployed";
    Commit(std::move(*trial));
    ++next_module_seq_;
    (void)t_start;
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

  std::optional<Deployment> trial = MakeTrial(request, module_id, platform, addr, error);
  if (!trial) {
    *error = "bad configuration: " + *error;
    return false;
  }
  SecurityReport security =
      CheckModuleSecurity(trial->config, SecurityOptionsFor(request, addr), error);
  if (security.verdict == Verdict::kRejected) {
    *error = "security: " + security.Summary();
    return false;
  }
  trial->sandboxed = security.verdict == Verdict::kNeedsSandbox;
  trial->path_digest = symexec::ComputePathDigest(trial->config).Encode();

  if (reverify) {
    std::vector<ReachSpec> client_specs;
    for (const std::string& statement : policy::SplitReachStatements(request.requirements)) {
      auto spec = ReachSpec::Parse(statement, error);
      if (!spec) {
        *error = "bad requirement: " + *error;
        return false;
      }
      client_specs.push_back(std::move(*spec));
    }
    SymGraph graph = BuildVerificationGraph(&*trial, error);
    uint64_t steps = 0;
    std::string failure;
    bool ok = CheckAllRequirements(graph, *trial, operator_policies_, &failure, &steps,
                                   /*via_module=*/false);
    if (ok) {
      ok = CheckAllRequirements(graph, *trial, client_specs, &failure, &steps,
                                /*via_module=*/true);
    }
    if (!ok) {
      *error = "on " + platform + ": " + failure;
      return false;
    }
  }

  Commit(std::move(*trial));
  // Keep fresh module ids unique: skip the sequence number the restored id
  // embeds ("<client>-m<seq>") so post-recovery deploys cannot collide.
  size_t marker = module_id.rfind("-m");
  if (marker != std::string::npos) {
    uint64_t seq = 0;
    bool numeric = marker + 2 < module_id.size();
    for (size_t i = marker + 2; i < module_id.size(); ++i) {
      char c = module_id[i];
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(c - '0');
    }
    if (numeric && seq >= next_module_seq_) {
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
