// FederationCoordinator: the cross-PoP brain. It holds an eventually-
// consistent view of every region, assembled from gossip digests polled over
// its own ControlChannel (scope kRegion, so inter-PoP links draw from the
// fault plan's region_* class and can be partitioned per region), places new
// tenants into the region ranked best by modeled client RTT + digest load
// (scheduler::RankRegions), and drives cross-region migrations by routing
// the exported guest state through itself (kRegionExport on the source,
// kRegionImport on the target).
//
// Beliefs vs truth: the coordinator's placement map (module -> region) is a
// belief derived from acks and digests, never authoritative — a partitioned
// region keeps mutating local state autonomously. On heal the coordinator
// reconciles: stale beliefs (modules the region no longer reports live) are
// dropped, and modules the region grew on its own are discovered. This is
// Orchestrator::ReconcilePlatform one level up.
#ifndef SRC_FEDERATION_COORDINATOR_H_
#define SRC_FEDERATION_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/controller/control_channel.h"
#include "src/federation/region.h"
#include "src/obs/fleetview.h"
#include "src/scheduler/policy.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"

namespace innet::federation {

// A tenant deploy plus the client population it should land near.
struct FederatedRequest {
  controller::ClientRequest request;
  std::string client_region;  // region affinity of the client population
};

struct FederatedDeploy {
  bool ok = false;
  std::string error;
  std::string region;     // where the tenant landed
  std::string module_id;  // region-local module id
  std::string platform;
  size_t attempts = 0;     // regions tried (1 = first choice accepted)
  bool failed_over = false;
  // Root span of the federated operation: every cross-region hop and every
  // region-local child span parents under it, so the merged dump renders the
  // whole deploy as one connected tree. 0 when tracing is disabled.
  uint64_t trace_id = 0;
};

struct FederatedMigration {
  bool ok = false;
  bool lost = false;  // guest state unrecoverable (import failed both ways)
  std::string error;
  std::string module_id;      // id before the move
  std::string new_module_id;  // id in the adopting region (on success)
  std::string source_region;
  std::string target_region;
  uint64_t trace_id = 0;  // root span of the migration (see FederatedDeploy)
};

class FederationCoordinator {
 public:
  using DeployCallback = std::function<void(const FederatedDeploy&)>;
  using MigrationCallback = std::function<void(const FederatedMigration&)>;

  explicit FederationCoordinator(sim::EventQueue* clock);

  // Registers a region; registration order defines the RTT matrix
  // (|index distance| * 20 ms, 2 ms on the diagonal).
  // The region must outlive the coordinator.
  void AddRegion(RegionController* region);
  double ModelRtt(const std::string& from, const std::string& to) const;

  // Attaches the fault oracle to the coordinator<->region links (the channel
  // is scoped to the plan's region_* fault class). nullptr = ideal WAN.
  void SetFaultInjector(sim::FaultInjector* injector) { channel_.SetFaultInjector(injector); }
  controller::ControlChannel& channel() { return channel_; }
  controller::ControlClient& client() { return client_; }

  // Polls every registered region once now, then every 500 ms.
  void StartDigestPolling();
  // One poll round (async under a faulty channel).
  void PollDigests();

  // Latency-aware placement: ranks regions by modeled RTT from the request's
  // client population + digest load (fresh, non-degraded regions strictly
  // first), then walks the ranking, handing the deploy to each region until
  // one accepts. `on_done` fires exactly once.
  void Deploy(const FederatedRequest& request, DeployCallback on_done);

  // Cross-region migration via the coordinator: export (suspend + detach) on
  // the believed source region, import (re-verify + adopt) on the target.
  // If the target rejects, the guest is re-imported on the source; if that
  // also fails the tenant is reported lost. `on_done` fires exactly once.
  void Migrate(const std::string& module_id, const std::string& target_region,
               MigrationCallback on_done);

  // Partition / heal one region's WAN link. Healing immediately pulls a
  // fresh digest over the direct path and reconciles beliefs against it.
  void SetRegionPartitioned(const std::string& region, bool partitioned);

  struct ReconcileOutcome {
    size_t stale_dropped = 0;  // beliefs the region no longer backs
    size_t discovered = 0;     // live modules the coordinator did not know
  };
  // Compares beliefs about `region` against its current digest (fetched over
  // the fault-exempt direct path) and converges the placement map.
  ReconcileOutcome ReconcileRegion(const std::string& region);

  // Beliefs no region's last-known digest backs (0 after a full reconcile).
  size_t StaleBeliefCount() const;

  // The fleet-wide observability view: every accepted digest's metrics
  // snapshot lands here (deltas, EWMA anomaly flags, correlated incidents).
  // Placement consults AnomalousRegions() so flagged regions rank last among
  // their freshness class; benches dump it via WriteJsonFile.
  obs::FleetView& fleet_view() { return fleet_view_; }
  const obs::FleetView& fleet_view() const { return fleet_view_; }

  // Last digest received from `region`, or nullptr before the first one.
  const RegionDigest* ViewOf(const std::string& region) const;
  // Believed region of a module ("" when unknown).
  std::string BeliefOf(const std::string& module_id) const;

 private:
  struct RegionState {
    RegionController* region = nullptr;
    size_t index = 0;  // registration order, drives the default RTT matrix
    RegionDigest digest;
    uint64_t received_ns = 0;
    bool have_digest = false;
  };

  uint64_t MintEpoch() { return ++epoch_seq_; }
  void SchedulePollTick();
  void AcceptDigest(const std::string& region, const RegionDigest& digest);
  void TryDeploy(std::shared_ptr<struct DeployAttempt> attempt);
  void FinishMigration(const FederatedMigration& result, const MigrationCallback& on_done);

  sim::EventQueue* clock_;
  controller::ControlChannel channel_;
  controller::ControlClient client_;
  uint64_t epoch_seq_ = 0;
  bool polling_ = false;
  obs::FleetView fleet_view_;
  std::map<std::string, RegionState> regions_;
  std::map<std::string, std::string> beliefs_;      // module id -> region
  // Guards polling ticks and async continuations against outliving us.
  std::shared_ptr<char> alive_;
};

}  // namespace innet::federation

#endif  // SRC_FEDERATION_COORDINATOR_H_
