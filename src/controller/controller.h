// The In-Net controller (§4.3): receives client requests, statically
// verifies them against a snapshot of the operator network (security rules,
// operator policy, the client's own requirements), picks a platform, and
// records the deployment.
#ifndef SRC_CONTROLLER_CONTROLLER_H_
#define SRC_CONTROLLER_CONTROLLER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/click/config_parser.h"
#include "src/controller/security.h"
#include "src/policy/reach_checker.h"
#include "src/policy/reach_spec.h"
#include "src/topology/network.h"

namespace innet::controller {

struct ClientRequest {
  std::string client_id;
  RequesterClass requester = RequesterClass::kThirdParty;
  // Click configuration text (may contain $SELF); see also stock_modules.h.
  std::string click_config;
  // Reach statements, one or more, as in Figure 4.
  std::string requirements;
  // Destinations this client explicitly authorizes (addresses it owns).
  std::vector<Ipv4Address> whitelist;
  // Prefixes the client registered as its own source addresses.
  std::vector<Ipv4Prefix> owned_prefixes;
  // When non-empty, placement is restricted to exactly this platform. The
  // full verification pipeline still runs against it; the scheduler's
  // policy ranking is skipped.
  std::string pinned_platform;
};

// A module's symbolic model in the form the verification graph embeds (its
// ToNetfront elements forward back into the platform), with the ids of its
// ingress and egress nodes.
struct ModuleFragment {
  symexec::SymGraph graph;
  int entry = -1;          // the first FromNetfront; -1 when there is none
  std::vector<int> exits;  // every ToNetfront
};

struct Deployment {
  std::string module_id;
  std::string client_id;
  std::string platform;
  Ipv4Address addr;
  bool sandboxed = false;
  click::ConfigGraph config;
  std::string config_text;
  // Firewall pinholes installed with this deployment: inbound flows to the
  // client's registered addresses (explicit authorization, §2.1).
  std::vector<FlowSpec> pinholes;
  // Encoded verify-time path digest (symexec/path_digest.h): the hash sets of
  // every symbolically explored path through this config. Journaled and
  // carried through migration so the INT collector can attest sampled
  // packets against it at runtime.
  std::string path_digest;
  // Built once, when the deployment is verified or restored; every later
  // verification graph merges it instead of modeling the config again.
  std::shared_ptr<const ModuleFragment> fragment;
};

struct DeployOutcome {
  bool accepted = false;
  std::string module_id;
  std::string platform;
  Ipv4Address module_addr;
  bool sandboxed = false;
  std::string reason;  // why rejected, or which check failed last
  SecurityReport security;
  // Timing split, mirroring Figure 10's compilation-vs-checking breakdown.
  // Wall-clock: goes to bench JSON, never into the metrics registry.
  double model_build_ms = 0;
  double check_ms = 0;
  uint64_t engine_steps = 0;
  // Simulated verification latency derived from the deterministic work
  // measures above via VerifyCostModel — this is what the registry's
  // innet_controller_verify_latency_ms histogram observes, keeping metric
  // dumps byte-identical across runs of the same (config, seed).
  uint64_t sim_verify_ns = 0;
};

// Converts the verifier's deterministic work measures (engine steps, nodes
// of each candidate verification graph) into simulated nanoseconds.
struct VerifyCostModel {
  uint64_t ns_per_engine_step = 2000;    // 2 µs per symbolic-execution step
  uint64_t ns_per_graph_node = 50000;    // 50 µs of model building per node
};

class Controller {
 public:
  explicit Controller(topology::Network network);

  // Registers an operator policy statement that must hold after every
  // deployment. Returns false on parse errors.
  bool AddOperatorPolicy(const std::string& reach_statement, std::string* error = nullptr);

  // Processes a deployment request: tries every platform, returns the first
  // placement satisfying security + operator policy + client requirements.
  DeployOutcome Deploy(const ClientRequest& request);

  // As above, but only `candidate_platforms` are tried. With
  // `candidates_ranked` (the scheduler's policy-ranked output) the given
  // order is kept; otherwise the geolocation sort still applies within the
  // restricted set. Unknown or failed names are skipped; an empty list
  // means "no restriction".
  DeployOutcome Deploy(const ClientRequest& request,
                       const std::vector<std::string>& candidate_platforms,
                       bool candidates_ranked = true);

  // Stops a deployed module. Returns false for unknown ids.
  bool Kill(const std::string& module_id);

  // Crash recovery: re-admits a deployment the journal says was already
  // verified and placed, keeping its original module id and address so the
  // controller's belief matches what is actually running on the fleet.
  // Idempotent — if the module id is already committed this is a no-op
  // success. Security checks (and pinhole derivation) always rerun, since
  // they are cheap and decide sandboxing; the full symbolic re-verification
  // only runs with `reverify` (used when the journal state is ambiguous).
  bool RestoreDeployment(const ClientRequest& request, const std::string& module_id,
                         const std::string& platform, Ipv4Address addr, bool reverify,
                         std::string* error);

  // Platform availability. A failed platform is skipped by Deploy until
  // restored — the orchestrator marks a node failed before re-placing its
  // stranded tenants, so failover verification never lands them back on the
  // dead box.
  void MarkPlatformFailed(const std::string& name) { failed_platforms_.insert(name); }
  void RestorePlatform(const std::string& name) { failed_platforms_.erase(name); }
  bool IsPlatformFailed(const std::string& name) const {
    return failed_platforms_.count(name) != 0;
  }

  // Committed deployments in commit order (which fixes each module's port on
  // its platform in the verification graph).
  const std::vector<Deployment>& deployments() const { return deployments_; }
  // The committed deployment `module_id`, or nullptr.
  const Deployment* FindDeployment(const std::string& module_id) const;
  const topology::Network& network() const { return network_; }

  void set_verify_cost_model(VerifyCostModel model) { verify_cost_ = model; }
  const VerifyCostModel& verify_cost_model() const { return verify_cost_; }

  // Builds the verification graph for the current network plus all committed
  // deployments (and optionally one trial module). Exposed for tests.
  symexec::SymGraph BuildVerificationGraph(const Deployment* trial, std::string* error);

  // Resolves reach-language node specs against the current graph; `trial`
  // names the module whose elements "module:element" refs resolve into. The
  // resolver reads this controller's deployments when it is called and refers
  // to `trial` without copying it, so `trial` must outlive it.
  policy::NodeResolver MakeResolver(const Deployment* trial) const;

 private:
  std::optional<Ipv4Address> NextAddress(const topology::Node& platform) const;
  // A trial deployment of `request` at `addr` on `platform`: the parsed
  // config, the pinholes the request's whitelist authorizes, and the module's
  // fragment. nullopt and *error when the config does not parse.
  std::optional<Deployment> MakeTrial(const ClientRequest& request, const std::string& module_id,
                                      const std::string& platform, Ipv4Address addr,
                                      std::string* error) const;
  void Commit(Deployment deployment);
  // Rebuilds the module-id and address indexes from deployments_.
  void Reindex();
  bool CheckAllRequirements(const symexec::SymGraph& graph, const Deployment& trial,
                            const std::vector<policy::ReachSpec>& specs, std::string* failure,
                            uint64_t* steps, bool via_module) const;
  // Stamps sim_verify_ns, bumps the registry's request/latency/step
  // instruments, and emits the verify-finish trace event. Called on every
  // Deploy exit path.
  void RecordDeployMetrics(DeployOutcome* outcome, uint64_t graph_nodes) const;

  topology::Network network_;
  std::vector<Deployment> deployments_;
  // Indexes into deployments_; on a shared address, the first in commit order.
  std::unordered_map<std::string, size_t> by_module_;
  std::unordered_map<uint32_t, size_t> by_addr_;
  std::vector<policy::ReachSpec> operator_policies_;
  std::unordered_set<std::string> failed_platforms_;
  uint64_t next_module_seq_ = 1;
  VerifyCostModel verify_cost_;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_CONTROLLER_H_
