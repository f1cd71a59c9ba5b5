// Federated multi-PoP control plane: region digests over the (lossy,
// partitionable) coordinator<->region channel, latency-aware cross-region
// placement with failover, autonomous degraded mode under partition, and
// belief reconciliation at heal. Cross-region migration routes the exported
// guest through the coordinator and restores it at the source on failure.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/federation/coordinator.h"
#include "src/federation/region.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scheduler/policy.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace innet::federation {
namespace {

controller::ClientRequest StatefulRequest(const std::string& client_id) {
  controller::ClientRequest request;
  request.client_id = client_id;
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> FlowMeter() -> IPRewriter(pattern - - 10.1.0.5 - 0 0) "
      "-> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.1.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.1.0.0/16")};
  return request;
}

RegionController MakeRegion(const std::string& name, sim::EventQueue* clock) {
  return RegionController(name, topology::Network::MakeMultiPop(2), clock);
}

// --- Wire formats ----------------------------------------------------------------------

TEST(FederationWire, ClientRequestRoundTripsThroughJson) {
  controller::ClientRequest request = StatefulRequest("tenant-a");
  request.requirements = "stateful";
  request.pinned_platform = "platform1";

  obs::json::Value encoded = ClientRequestToJson(request);
  // Through the wire: serialize to text and parse back, as the channel does.
  obs::json::Value parsed;
  std::string error;
  ASSERT_TRUE(obs::json::Value::Parse(encoded.ToString(), &parsed, &error)) << error;
  controller::ClientRequest decoded;
  ASSERT_TRUE(ClientRequestFromJson(parsed, &decoded, &error)) << error;

  EXPECT_EQ(decoded.client_id, request.client_id);
  EXPECT_EQ(decoded.requester, request.requester);
  EXPECT_EQ(decoded.click_config, request.click_config);
  EXPECT_EQ(decoded.requirements, request.requirements);
  EXPECT_EQ(decoded.pinned_platform, request.pinned_platform);
  ASSERT_EQ(decoded.whitelist.size(), 1u);
  EXPECT_EQ(decoded.whitelist[0].ToString(), "10.1.0.5");
  ASSERT_EQ(decoded.owned_prefixes.size(), 1u);
  EXPECT_EQ(decoded.owned_prefixes[0].ToString(), "10.1.0.0/16");
}

TEST(FederationWire, RegionDigestRoundTripsThroughJson) {
  RegionDigest digest;
  digest.region = "eu";
  digest.seq = 12;
  digest.generated_ns = 987654321;
  digest.degraded = true;
  digest.platforms = 3;
  digest.tenants = 2;
  digest.memory_total = 4096;
  digest.memory_used = 1024;
  digest.live_modules = {"m_a", "m_b"};

  obs::json::Value parsed;
  std::string error;
  ASSERT_TRUE(obs::json::Value::Parse(digest.ToJson().ToString(), &parsed, &error)) << error;
  RegionDigest decoded;
  ASSERT_TRUE(RegionDigest::FromJson(parsed, &decoded, &error)) << error;
  EXPECT_EQ(decoded.region, "eu");
  EXPECT_EQ(decoded.seq, 12u);
  EXPECT_EQ(decoded.generated_ns, 987654321u);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.platforms, 3u);
  EXPECT_EQ(decoded.tenants, 2u);
  EXPECT_EQ(decoded.memory_total, 4096u);
  EXPECT_EQ(decoded.memory_used, 1024u);
  EXPECT_EQ(decoded.live_modules, digest.live_modules);
  EXPECT_DOUBLE_EQ(decoded.utilization(), 0.25);
}

// --- Region ranking --------------------------------------------------------------------

TEST(RankRegions, PrefersLowRttThenLoadAndDemotesSuspects) {
  std::vector<scheduler::RegionCandidate> candidates;
  candidates.push_back({"far-idle", 60.0, 0.0, false, false});     // score 60
  candidates.push_back({"near-busy", 10.0, 0.8, false, false});    // score 50
  candidates.push_back({"near-idle", 10.0, 0.0, false, false});    // score 10
  candidates.push_back({"nearest-degraded", 2.0, 0.0, true, false});  // suspect
  candidates.push_back({"nearest-stale", 2.0, 0.0, false, true});     // suspect

  std::vector<std::string> ranked = scheduler::RankRegions(candidates);
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0], "near-idle");
  EXPECT_EQ(ranked[1], "near-busy");
  EXPECT_EQ(ranked[2], "far-idle");
  // Degraded/stale regions rank strictly after every healthy one, even with
  // the best RTT; among themselves they keep score order (tie -> name).
  EXPECT_EQ(ranked[3], "nearest-degraded");
  EXPECT_EQ(ranked[4], "nearest-stale");
}

TEST(RankRegions, AnomalousRegionsDemoteWithinTheirFreshnessClass) {
  std::vector<scheduler::RegionCandidate> candidates;
  candidates.push_back({"quiet-far", 40.0, 0.0, false, false, false});
  candidates.push_back({"anomalous-near", 5.0, 0.0, false, false, true});
  candidates.push_back({"quiet-near", 10.0, 0.0, false, false, false});
  candidates.push_back({"stale-quiet", 2.0, 0.0, false, true, false});

  std::vector<std::string> ranked = scheduler::RankRegions(candidates);
  ASSERT_EQ(ranked.size(), 4u);
  // The anomaly flag demotes past every quiet fresh region (even with the
  // best score) but not past the suspect class: a flagged fresh region is
  // still a better bet than a stale belief.
  EXPECT_EQ(ranked[0], "quiet-near");
  EXPECT_EQ(ranked[1], "quiet-far");
  EXPECT_EQ(ranked[2], "anomalous-near");
  EXPECT_EQ(ranked[3], "stale-quiet");
}

// --- Digests and placement -------------------------------------------------------------

TEST(Federation, DigestPollingBuildsFleetView) {
  sim::EventQueue clock;
  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);

  EXPECT_EQ(coordinator.ViewOf("east"), nullptr);
  coordinator.StartDigestPolling();
  const RegionDigest* view = coordinator.ViewOf("east");
  ASSERT_NE(view, nullptr);  // ideal WAN: the first poll completed inline
  EXPECT_EQ(view->region, "east");
  EXPECT_EQ(view->platforms, 2u);
  EXPECT_EQ(view->tenants, 0u);

  // Polls keep refreshing the view with a monotonic sequence.
  uint64_t first_seq = view->seq;
  clock.RunUntil(clock.now() + sim::FromSeconds(2));
  EXPECT_GT(coordinator.ViewOf("east")->seq, first_seq);
}

TEST(Federation, DeployLandsInAffinityRegion) {
  sim::EventQueue clock;
  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);
  coordinator.StartDigestPolling();

  FederatedRequest federated;
  federated.request = StatefulRequest("tenant-west");
  federated.client_region = "west";
  std::optional<FederatedDeploy> result;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { result = r; });
  ASSERT_TRUE(result.has_value());  // ideal WAN: synchronous
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->region, "west");
  EXPECT_FALSE(result->failed_over);
  EXPECT_EQ(result->attempts, 1u);
  EXPECT_EQ(west.orchestrator().placement_count(), 1u);
  EXPECT_EQ(east.orchestrator().placement_count(), 0u);
  EXPECT_EQ(coordinator.BeliefOf(result->module_id), "west");
  EXPECT_EQ(coordinator.StaleBeliefCount(), 1u);  // digest predates the deploy
  clock.RunUntil(clock.now() + sim::FromSeconds(2));
  EXPECT_EQ(coordinator.StaleBeliefCount(), 0u);  // next poll confirms it
}

TEST(Federation, PartitionedAffinityRegionFailsOverToSurvivor) {
  sim::EventQueue clock;
  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);
  coordinator.StartDigestPolling();

  coordinator.SetRegionPartitioned("east", true);
  FederatedRequest federated;
  federated.request = StatefulRequest("tenant-east");
  federated.client_region = "east";
  std::optional<FederatedDeploy> result;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { result = r; });
  EXPECT_FALSE(result.has_value());  // retrying against the partition
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->region, "west");  // the survivor took it
  EXPECT_TRUE(result->failed_over);
  EXPECT_EQ(result->attempts, 2u);
  EXPECT_EQ(west.orchestrator().placement_count(), 1u);
  EXPECT_EQ(east.orchestrator().placement_count(), 0u);
}

// --- Degraded mode ---------------------------------------------------------------------

TEST(Federation, RegionEntersAndClearsDegradedModeOnCoordinatorSilence) {
  sim::EventQueue clock;
  RegionController region = MakeRegion("solo", &clock);
  region.EnableDegradedMonitor();
  region.EnableDegradedMonitor();  // re-arming starts no second tick chain
  EXPECT_FALSE(region.degraded());

  // Silence: the region flags itself degraded and queues digest updates,
  // but keeps serving deploys on local state. The monitor ticks every
  // second; the ticks at 2, 3, 4 and 5 s find the 2 s threshold passed.
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_TRUE(region.degraded());
  EXPECT_EQ(region.queued_digests(), 4u);
  auto local = region.orchestrator().Deploy(StatefulRequest("local-tenant"));
  EXPECT_TRUE(local.outcome.accepted) << local.outcome.reason;

  // Contact clears the flag (and flushes the queue counter).
  region.NoteCoordinatorContact();
  EXPECT_FALSE(region.degraded());
  EXPECT_EQ(region.queued_digests(), 0u);

  // The degraded bit travels in the digest while set.
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_TRUE(region.degraded());
  EXPECT_TRUE(region.BuildDigest().degraded);
}

// --- Cross-region migration ------------------------------------------------------------

TEST(Federation, MigrationMovesStatefulTenantAndUpdatesBeliefs) {
  sim::EventQueue clock;
  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);
  coordinator.StartDigestPolling();

  FederatedRequest federated;
  federated.request = StatefulRequest("mover");
  federated.client_region = "east";
  std::optional<FederatedDeploy> deployed;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { deployed = r; });
  ASSERT_TRUE(deployed.has_value());
  ASSERT_TRUE(deployed->ok) << deployed->error;
  ASSERT_EQ(deployed->region, "east");
  clock.RunUntil(clock.now() + sim::FromSeconds(2));  // guest boots

  std::optional<FederatedMigration> migration;
  coordinator.Migrate(deployed->module_id, "west",
                      [&](const FederatedMigration& r) { migration = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(10));  // suspend takes sim time

  ASSERT_TRUE(migration.has_value());
  ASSERT_TRUE(migration->ok) << migration->error;
  EXPECT_EQ(migration->source_region, "east");
  EXPECT_EQ(migration->target_region, "west");
  EXPECT_FALSE(migration->new_module_id.empty());
  EXPECT_EQ(east.orchestrator().placement_count(), 0u);
  EXPECT_EQ(west.orchestrator().placement_count(), 1u);
  EXPECT_TRUE(west.orchestrator().HasPlacement(migration->new_module_id));
  EXPECT_FALSE(east.orchestrator().HasPlacement(deployed->module_id));
  EXPECT_EQ(coordinator.BeliefOf(migration->new_module_id), "west");
  clock.RunUntil(clock.now() + sim::FromSeconds(2));
  EXPECT_EQ(coordinator.StaleBeliefCount(), 0u);
}

TEST(Federation, MigrationToUnknownRegionAborts) {
  sim::EventQueue clock;
  RegionController east = MakeRegion("east", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);

  FederatedRequest federated;
  federated.request = StatefulRequest("stays");
  federated.client_region = "east";
  std::optional<FederatedDeploy> deployed;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { deployed = r; });
  ASSERT_TRUE(deployed.has_value() && deployed->ok);

  std::optional<FederatedMigration> migration;
  coordinator.Migrate(deployed->module_id, "nowhere",
                      [&](const FederatedMigration& r) { migration = r; });
  ASSERT_TRUE(migration.has_value());
  EXPECT_FALSE(migration->ok);
  EXPECT_FALSE(migration->lost);
  // The tenant never moved: still placed in east, belief intact.
  EXPECT_EQ(east.orchestrator().placement_count(), 1u);
  EXPECT_EQ(coordinator.BeliefOf(deployed->module_id), "east");
}

// --- Heal-time reconciliation ----------------------------------------------------------

TEST(Federation, HealReconcilesBeliefsAgainstAutonomousRegionChanges) {
  sim::EventQueue clock;
  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);
  coordinator.StartDigestPolling();

  FederatedRequest federated;
  federated.request = StatefulRequest("doomed");
  federated.client_region = "east";
  std::optional<FederatedDeploy> deployed;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { deployed = r; });
  ASSERT_TRUE(deployed.has_value() && deployed->ok);
  ASSERT_EQ(deployed->region, "east");
  clock.RunUntil(clock.now() + sim::FromSeconds(2));

  // Partition east, then change its placement truth behind the
  // coordinator's back: the region kills one tenant and deploys another on
  // purely local authority (autonomous degraded operation).
  coordinator.SetRegionPartitioned("east", true);
  ASSERT_TRUE(east.orchestrator().Kill(deployed->module_id));
  auto autonomous = east.orchestrator().Deploy(StatefulRequest("autonomous"));
  ASSERT_TRUE(autonomous.outcome.accepted) << autonomous.outcome.reason;
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_EQ(coordinator.BeliefOf(deployed->module_id), "east");  // stale belief

  // Heal: the coordinator pulls a fresh digest and converges — the dead
  // tenant's belief is dropped, the autonomous one discovered.
  coordinator.SetRegionPartitioned("east", false);
  EXPECT_EQ(coordinator.BeliefOf(deployed->module_id), "");
  EXPECT_EQ(coordinator.BeliefOf(autonomous.outcome.module_id), "east");
  EXPECT_EQ(coordinator.StaleBeliefCount(), 0u);

  // An explicit re-reconcile is a no-op once beliefs converged.
  FederationCoordinator::ReconcileOutcome again = coordinator.ReconcileRegion("east");
  EXPECT_EQ(again.stale_dropped, 0u);
  EXPECT_EQ(again.discovered, 0u);
}

// --- Cross-region trace propagation ----------------------------------------------------

TEST(Federation, CrossRegionMigrationFormsOneConnectedSpanTree) {
  sim::EventQueue clock;
  obs::Tracer().Clear();
  obs::Tracer().Enable();
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });

  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);
  coordinator.StartDigestPolling();

  FederatedRequest federated;
  federated.request = StatefulRequest("mover");
  federated.client_region = "east";
  std::optional<FederatedDeploy> deployed;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { deployed = r; });
  ASSERT_TRUE(deployed.has_value() && deployed->ok);
  EXPECT_NE(deployed->trace_id, 0u);
  clock.RunUntil(clock.now() + sim::FromSeconds(2));

  std::optional<FederatedMigration> migration;
  coordinator.Migrate(deployed->module_id, "west",
                      [&](const FederatedMigration& r) { migration = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(10));

  std::vector<obs::TraceEvent> events = obs::Tracer().events();
  obs::Tracer().Clear();
  obs::Tracer().Enable(false);
  obs::Tracer().SetTimeSource(nullptr);

  ASSERT_TRUE(migration.has_value());
  ASSERT_TRUE(migration->ok) << migration->error;
  ASSERT_NE(migration->trace_id, 0u);

  // No orphans: every parented event points at a recorded span. This is the
  // invariant trace propagation buys — the export leg in east and the import
  // leg in west hang off the coordinator's root instead of floating free.
  std::set<uint64_t> spans;
  for (const obs::TraceEvent& event : events) spans.insert(event.span);
  for (const obs::TraceEvent& event : events) {
    EXPECT_TRUE(event.parent == 0 || spans.count(event.parent))
        << "orphan parent on " << event.target;
  }

  // The migration root reaches a connected tree spanning both regions: grow
  // the reachable set until fixpoint, then demand the cross-region legs.
  std::set<uint64_t> tree = {migration->trace_id};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const obs::TraceEvent& event : events) {
      if (tree.count(event.parent) && !tree.count(event.span)) {
        tree.insert(event.span);
        grew = true;
      }
    }
  }
  size_t in_tree = 0;
  size_t control_sends = 0;
  bool completion_in_tree = false;
  for (const obs::TraceEvent& event : events) {
    if (!tree.count(event.span)) continue;
    ++in_tree;
    if (event.kind == obs::EventKind::kControlSend) ++control_sends;
    if (event.kind == obs::EventKind::kRegionMigrate && event.span != migration->trace_id) {
      completion_in_tree = true;
    }
  }
  EXPECT_GE(in_tree, 6u) << "migration tree too small to span export+import";
  EXPECT_GE(control_sends, 2u) << "both WAN legs should be in the tree";
  EXPECT_TRUE(completion_in_tree) << "completion event must parent to the root";
}

TEST(Federation, DuplicatedWanRequestsDoNotDuplicateSpansOrFleetDeltas) {
  sim::EventQueue clock;
  obs::Tracer().Clear();
  obs::Tracer().Enable();
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });

  RegionController east = MakeRegion("east", &clock);
  RegionController west = MakeRegion("west", &clock);
  FederationCoordinator coordinator(&clock);
  coordinator.AddRegion(&east);
  coordinator.AddRegion(&west);

  sim::FaultPlan plan;
  plan.seed = 7;
  plan.region_dup_p = 0.5;
  plan.region_reorder_p = 0.3;
  plan.region_delay_mean_ms = 2.0;
  sim::FaultInjector faults(plan);
  coordinator.SetFaultInjector(&faults);

  uint64_t received_before = static_cast<uint64_t>(
      obs::Registry()
          .GetCounter("innet_federation_digests_total", {{"event", "received"}})
          ->value());
  coordinator.StartDigestPolling();

  FederatedRequest federated;
  federated.request = StatefulRequest("dup-tenant");
  federated.client_region = "east";
  std::optional<FederatedDeploy> result;
  coordinator.Deploy(federated, [&](const FederatedDeploy& r) { result = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  std::vector<obs::TraceEvent> events = obs::Tracer().events();
  obs::Tracer().Clear();
  obs::Tracer().Enable(false);
  obs::Tracer().SetTimeSource(nullptr);

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok) << result->error;
  EXPECT_GT(faults.region_duplicated(), 0u) << "plan should have injected duplicates";

  // Endpoint dedup answers WAN replays from the response cache without
  // re-running the handler, so the handler-side deploy span exists exactly
  // once no matter how many copies of the request arrived.
  size_t deploy_requests = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.kind == obs::EventKind::kDeployRequest &&
        event.target == "client:dup-tenant") {
      ++deploy_requests;
    }
  }
  EXPECT_EQ(deploy_requests, 1u);
  EXPECT_EQ(east.orchestrator().placement_count() + west.orchestrator().placement_count(), 1u);

  // FleetView ingestion stays in lockstep with the digests the coordinator
  // actually accepted: duplicated/reordered WAN copies never double-count.
  uint64_t received_after = static_cast<uint64_t>(
      obs::Registry()
          .GetCounter("innet_federation_digests_total", {{"event", "received"}})
          ->value());
  EXPECT_EQ(coordinator.fleet_view().ingests(), received_after - received_before);
  EXPECT_EQ(coordinator.fleet_view().FleetTotal("deploys_served"), 1u);
}

}  // namespace
}  // namespace innet::federation
