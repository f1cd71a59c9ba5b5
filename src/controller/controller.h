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
#include "src/symexec/click_models.h"
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
  // Shared, never copied, by every verification graph built while it is
  // installed; null or empty when the deployment opens none.
  topology::PinholeSet pinholes;
  // Encoded verify-time path digest (symexec/path_digest.h): the hash sets of
  // every symbolically explored path through this config. Journaled and
  // carried through migration so the INT collector can attest sampled
  // packets against it at runtime.
  std::string path_digest;
  // Built once, when the deployment is verified or restored; every later
  // verification graph merges it instead of modeling the config again.
  std::shared_ptr<const topology::ModuleFragment> fragment;
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
  // measures above (engine steps, graph nodes) — this is what the registry's
  // innet_controller_verify_latency_ms histogram observes, keeping metric
  // dumps byte-identical across runs of the same (config, seed).
  uint64_t sim_verify_ns = 0;
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
  // success. The module is always explored again, since that is cheap and
  // decides sandboxing, pinholes and the path digest; the operator-policy and
  // requirement checks only run with `reverify` (used when the journal state
  // is ambiguous).
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

  // Builds a fresh verification graph for the network plus all committed
  // deployments (and optionally one trial module after them). It equals
  // verification_graph() with the trial pushed. Exposed for tests and
  // benchmarks.
  symexec::SymGraph BuildVerificationGraph(const Deployment* trial, std::string* error) const;
  // The graph Deploy checks candidates against, kept across requests: the
  // network with every committed deployment pushed in commit order.
  const topology::VerificationGraph& verification_graph() const { return graph_; }

  // Resolves reach-language node specs against the current graph; `trial`
  // names the module whose elements "module:element" refs resolve into. The
  // resolver reads this controller's deployments when it is called and refers
  // to `trial` without copying it, so `trial` must outlive it.
  policy::NodeResolver MakeResolver(const Deployment* trial) const;

 private:
  std::optional<Ipv4Address> NextAddress(const topology::Node& platform) const;
  // A request's module under verification. Compile fills it once per
  // distinct config text; Place then puts it on each candidate in turn.
  struct Trial {
    // From Compile: the config and its text, the pinholes the request's
    // whitelist authorizes, the path digest and the fragment. From Place:
    // the module id, client, platform, address and sandboxing.
    Deployment deployment;
    // The module explored once on its own, which Place classifies at each
    // candidate's address. Its graph and sinks moved into the fragment.
    symexec::ModuleExploration exploration;
    SecurityReport security;  // from Place
  };
  // Parses and explores `config_text`, the request's config with $SELF
  // substituted. nullopt and *error ("bad configuration: ...") when it does
  // not parse or cannot be modeled.
  std::optional<Trial> Compile(const ClientRequest& request, std::string config_text,
                               std::string* error) const;
  // Places the compiled `trial` as `module_id` at `addr` on `platform`,
  // classifying its flows at that address.
  void Place(const ClientRequest& request, const std::string& module_id,
             const std::string& platform, Ipv4Address addr, Trial* trial) const;
  // The checks Deploy and RestoreDeployment share: pushes the trial onto
  // the verification graph, then checks the security verdict, the operator
  // policy and `client_specs`. Without `client_specs` only the verdict is
  // checked. Adds the work done to *outcome (timings, engine steps, the
  // security report) and *graph_nodes. On success the trial stays pushed,
  // for Commit; otherwise it is popped, and *failure says which check
  // failed.
  bool CheckTrial(const Trial& trial, const std::vector<policy::ReachSpec>* client_specs,
                  DeployOutcome* outcome, uint64_t* graph_nodes, std::string* failure);
  // Records `deployment`, which CheckTrial left pushed onto graph_.
  void Commit(Deployment deployment);
  // Stamps sim_verify_ns, bumps the registry's request/latency/step
  // instruments, and emits the verify-finish trace event. Called on every
  // Deploy exit path.
  void RecordDeployMetrics(DeployOutcome* outcome, uint64_t graph_nodes) const;

  const topology::Network network_;
  std::vector<Deployment> deployments_;
  // The network with every committed deployment pushed, in commit order;
  // a trial is pushed on top while it is checked.
  topology::VerificationGraph graph_;
  // Indexes into deployments_; on a shared address, the first in commit order.
  std::unordered_map<std::string, size_t> by_module_;
  std::unordered_map<uint32_t, size_t> by_addr_;
  std::vector<policy::ReachSpec> operator_policies_;
  std::unordered_set<std::string> failed_platforms_;
  uint64_t next_module_seq_ = 1;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_CONTROLLER_H_
