// Federation failover bench: deploy acceptance and placement-belief
// convergence while regional WAN links partition and heal, over a 3-region
// federated control plane (one RegionController + fleet per PoP region, one
// FederationCoordinator gossiping digests over a lossy region-scoped
// channel).
//
// Phase 1 seeds tenants into their affinity regions. Phase 2 rolls a
// partition across each region in turn: deploys with affinity for the dark
// region must still be accepted (failing over to survivors), the partitioned
// region keeps serving and mutates local state autonomously (a tenant is
// killed behind the coordinator's back), and the heal-time reconcile must
// drop exactly the beliefs the region no longer backs. Phase 3 runs one
// cross-region migration through the coordinator.
//
// The acceptance invariants: every deploy lands somewhere, the migration
// completes as ONE connected span tree (the coordinator's root id propagates
// through every WAN hop and region-local handler span — no orphans), and
// after the final heal the coordinator holds zero stale placement beliefs.
// Fixed seed, simulated clock: the JSON snapshot, the Perfetto trace, and
// the fleet observability dump (--fleet-obs-out, default
// BENCH_federation_failover_fleet.json) are byte-identical across runs
// (its ctest case runs it twice and compares all of them).
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/federation/coordinator.h"
#include "src/federation/region.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace {

using namespace innet;
using controller::ClientRequest;
using federation::FederatedDeploy;
using federation::FederatedMigration;
using federation::FederatedRequest;
using federation::FederationCoordinator;
using federation::RegionController;

constexpr uint64_t kSeed = 42;
constexpr int kPopsPerRegion = 2;
const char* kRegions[] = {"east", "central", "west"};

ClientRequest StatefulRequest(const std::string& client_id) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> FlowMeter() -> IPRewriter(pattern - - 10.1.0.5 - 0 0) "
      "-> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.1.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.1.0.0/16")};
  return request;
}

struct DeployStats {
  int requested = 0;
  int accepted = 0;
  int rejected = 0;    // no region accepted: an SLO violation
  int diverted = 0;    // accepted outside the affinity region
  int failed_over = 0; // accepted only after at least one region gave up
};

obs::json::Value StatsJson(const DeployStats& stats) {
  obs::json::Value out = obs::json::Value::Object();
  out.Set("requested", static_cast<int64_t>(stats.requested));
  out.Set("accepted", static_cast<int64_t>(stats.accepted));
  out.Set("rejected", static_cast<int64_t>(stats.rejected));
  out.Set("diverted", static_cast<int64_t>(stats.diverted));
  out.Set("failed_over", static_cast<int64_t>(stats.failed_over));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fleet_out = "BENCH_federation_failover_fleet.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--fleet-obs-out") == 0) {
      fleet_out = argv[i + 1];
    }
  }
  obs::Registry().ResetValues();

  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = kSeed;
  plan.region_loss_p = 0.05;
  plan.region_delay_mean_ms = 1.0;
  sim::FaultInjector faults(plan);

  // Tracing on for the whole run: the phase-3 acceptance check walks the
  // migration's span tree, and the Perfetto export rides along as an
  // artifact (sim-clock timestamps only, so it diffs clean across runs).
  obs::Tracer().Clear();
  obs::Tracer().Enable();
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });

  std::vector<std::unique_ptr<RegionController>> regions;
  for (const char* name : kRegions) {
    regions.push_back(std::make_unique<RegionController>(
        name, topology::Network::MakeMultiPop(kPopsPerRegion), &clock));
    regions.back()->EnableDegradedMonitor();
  }
  FederationCoordinator coordinator(&clock);
  for (auto& region : regions) {
    coordinator.AddRegion(region.get());
  }
  coordinator.SetFaultInjector(&faults);
  coordinator.StartDigestPolling();
  clock.RunUntil(clock.now() + sim::FromSeconds(1));  // first digests land

  auto deploy = [&](const std::string& client_id, const std::string& affinity,
                    DeployStats* stats, std::vector<std::string>* modules) {
    FederatedRequest federated;
    federated.request = StatefulRequest(client_id);
    federated.client_region = affinity;
    ++stats->requested;
    auto result = std::make_shared<std::optional<FederatedDeploy>>();
    coordinator.Deploy(federated, [result](const FederatedDeploy& r) { *result = r; });
    // Drive the clock until the deploy resolves (retries + failover chains
    // run on simulated time; 60 s bounds the longest give-up cascade).
    sim::TimeNs deadline = clock.now() + sim::FromSeconds(60);
    while (!result->has_value() && clock.now() < deadline) {
      clock.RunUntil(clock.now() + sim::FromSeconds(1));
    }
    if (!result->has_value() || !(*result)->ok) {
      ++stats->rejected;
      return;
    }
    ++stats->accepted;
    if ((*result)->region != affinity) {
      ++stats->diverted;
    }
    if ((*result)->failed_over) {
      ++stats->failed_over;
    }
    if (modules != nullptr) {
      modules->push_back((*result)->module_id);
    }
  };

  // --- Phase 1: steady state — tenants land in their affinity regions ------
  bench::PrintHeader("Federation failover: phase 1 — affinity placement (seed 42)");
  DeployStats steady;
  std::vector<std::string> doomed_modules;    // per region: killed during its partition
  std::vector<std::string> survivor_modules;  // per region: survives to phase 3
  for (int i = 0; i < 2; ++i) {
    for (const char* region : kRegions) {
      deploy("tenant-" + std::string(region) + "-" + std::to_string(i), region, &steady,
             i == 0 ? &doomed_modules : &survivor_modules);
    }
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(2));  // guests boot, digests refresh
  std::printf("phase 1: requested=%d accepted=%d diverted=%d\n", steady.requested,
              steady.accepted, steady.diverted);

  // --- Phase 2: rolling regional partitions --------------------------------
  bench::PrintHeader("Phase 2 — rolling partitions: failover + autonomous mutation + heal");
  DeployStats dark;
  obs::Counter* stale_counter =
      obs::Registry().GetCounter("innet_federation_reconcile_total", {{"outcome", "stale_dropped"}});
  size_t reconcile_residual = 0;  // drops found by a second, explicit reconcile
  int degraded_observed = 0;
  for (size_t r = 0; r < regions.size(); ++r) {
    const std::string region_name = kRegions[r];
    uint64_t stale_before = stale_counter->value();
    coordinator.SetRegionPartitioned(region_name, true);
    // Deploys with affinity for the dark region: the fresh-digest ranking
    // still tries it first, gives up, and fails over to a survivor.
    for (int i = 0; i < 2; ++i) {
      deploy("dark-" + region_name + "-" + std::to_string(i), region_name, &dark, nullptr);
    }
    // The partitioned region operates autonomously: it kills one of its
    // phase-1 tenants on purely local authority and goes degraded once the
    // coordinator stays silent past the threshold.
    regions[r]->orchestrator().Kill(doomed_modules[r]);
    clock.RunUntil(clock.now() + sim::FromSeconds(4));
    if (regions[r]->degraded()) {
      ++degraded_observed;
    }
    // Heal: the coordinator immediately reconciles beliefs against the
    // region's digest — the killed tenant's belief must drop. A second,
    // explicit reconcile must then be a no-op (idempotence).
    coordinator.SetRegionPartitioned(region_name, false);
    uint64_t healed_drops = stale_counter->value() - stale_before;
    FederationCoordinator::ReconcileOutcome again = coordinator.ReconcileRegion(region_name);
    reconcile_residual += again.stale_dropped + again.discovered;
    clock.RunUntil(clock.now() + sim::FromSeconds(2));
    std::printf("partition %-8s accepted=%d failed_over=%d stale_dropped=%llu degraded=%s\n",
                region_name.c_str(), dark.accepted, dark.failed_over,
                static_cast<unsigned long long>(healed_drops),
                regions[r]->degraded() ? "still" : "cleared");
  }
  size_t reconcile_stale_dropped = stale_counter->value();

  // --- Phase 3: cross-region migration through the coordinator -------------
  bench::PrintHeader("Phase 3 — cross-region migration via the coordinator");
  int migrations_completed = 0;
  std::optional<FederatedMigration> migration;
  // Move central's surviving phase-1 tenant (index 1 in registration order)
  // into west through the coordinator's export/import path.
  coordinator.Migrate(survivor_modules[1], "west",
                      [&](const FederatedMigration& r) { migration = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(20));
  if (migration.has_value() && migration->ok) {
    ++migrations_completed;
  }
  std::printf("migration: %s\n",
              migrations_completed == 1 ? "completed" : migration.has_value()
                                                            ? migration->error.c_str()
                                                            : "still in flight");

  // --- Convergence ---------------------------------------------------------
  clock.RunUntil(clock.now() + sim::FromSeconds(5));  // final digest rounds
  size_t stale_beliefs = coordinator.StaleBeliefCount();
  int regions_degraded = 0;
  size_t federation_tenants = 0;
  for (auto& region : regions) {
    regions_degraded += region->degraded() ? 1 : 0;
    federation_tenants += region->orchestrator().placement_count();
  }
  // --- Trace connectivity --------------------------------------------------
  // The migration must render as ONE connected tree: every event reachable
  // from the coordinator's root span via parent links, with no orphan parent
  // references anywhere in the dump (a parent id that no recorded event
  // owns would be a broken cross-region hand-off).
  const std::vector<obs::TraceEvent>& events = obs::Tracer().events();
  std::set<uint64_t> spans;
  for (const obs::TraceEvent& event : events) {
    spans.insert(event.span);
  }
  size_t orphan_spans = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.parent != 0 && spans.count(event.parent) == 0) {
      ++orphan_spans;
    }
  }
  size_t migration_tree_spans = 0;
  if (migration.has_value() && migration->trace_id != 0) {
    std::set<uint64_t> tree{migration->trace_id};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const obs::TraceEvent& event : events) {
        if (event.parent != 0 && tree.count(event.parent) != 0 && tree.count(event.span) == 0) {
          tree.insert(event.span);
          grew = true;
        }
      }
    }
    migration_tree_spans = tree.size();
  }
  // Root + export hop + import hop + completion is the bare minimum; the
  // region-local suspend/adopt spans push it well past that.
  bool migration_trace_connected = migration_tree_spans >= 4 && orphan_spans == 0;
  std::printf("trace: migration_tree_spans=%zu orphan_spans=%zu -> %s\n", migration_tree_spans,
              orphan_spans, migration_trace_connected ? "connected" : "DISCONNECTED");

  bool converged = steady.rejected == 0 && dark.rejected == 0 && migrations_completed == 1 &&
                   stale_beliefs == 0 && regions_degraded == 0 && reconcile_residual == 0 &&
                   migration_trace_connected;
  std::printf("\nfinal: tenants=%zu stale_beliefs=%zu degraded_regions=%d -> %s\n",
              federation_tenants, stale_beliefs, regions_degraded,
              converged ? "CONVERGED" : "CONVERGENCE FAILURE");

  // Headline series: all seeded deterministic outcomes.
  bench::BenchSeries series;
  series.Add("converged", converged ? 1.0 : 0.0, "bool");
  series.Add("steady_accepted", steady.accepted, "tenants");
  series.Add("dark_accepted", dark.accepted, "tenants");
  series.Add("dark_failed_over", dark.failed_over, "tenants");
  series.Add("rejected", steady.rejected + dark.rejected, "tenants");
  series.Add("stale_beliefs_after_heal", static_cast<double>(stale_beliefs), "beliefs");
  series.Add("reconcile_stale_dropped", static_cast<double>(reconcile_stale_dropped), "beliefs");
  series.Add("migrations_completed", migrations_completed, "count");
  series.Add("degraded_windows_observed", degraded_observed, "regions");
  series.Add("migration_trace_connected", migration_trace_connected ? 1.0 : 0.0, "bool");
  series.Add("trace_orphan_spans", static_cast<double>(orphan_spans), "spans");
  series.Add("fleet_regions_tracked",
             static_cast<double>(coordinator.fleet_view().region_count()), "regions");
  series.Add("fleet_incidents_total",
             static_cast<double>(coordinator.fleet_view().incidents().size()), "incidents");

  obs::json::Value results = obs::json::Value::Object();
  results.Set("seed", kSeed);
  results.Set("converged", converged);
  results.Set("series", series.ToJson());
  results.Set("steady", StatsJson(steady));
  results.Set("dark", StatsJson(dark));
  obs::json::Value reconcile = obs::json::Value::Object();
  reconcile.Set("stale_dropped", static_cast<uint64_t>(reconcile_stale_dropped));
  reconcile.Set("residual", static_cast<uint64_t>(reconcile_residual));
  results.Set("reconcile", std::move(reconcile));
  results.Set("migrations_completed", static_cast<int64_t>(migrations_completed));
  results.Set("stale_beliefs", static_cast<uint64_t>(stale_beliefs));
  results.Set("federation_tenants", static_cast<uint64_t>(federation_tenants));
  results.Set("sim_end_ns", clock.now());
  obs::json::Value trace_summary = obs::json::Value::Object();
  trace_summary.Set("events", static_cast<uint64_t>(events.size()));
  trace_summary.Set("orphan_spans", static_cast<uint64_t>(orphan_spans));
  trace_summary.Set("migration_tree_spans", static_cast<uint64_t>(migration_tree_spans));
  trace_summary.Set("migration_trace_id",
                    migration.has_value() ? migration->trace_id : uint64_t{0});
  results.Set("trace", std::move(trace_summary));
  obs::Tracer().ExportMetrics(&obs::Registry());
  results.Set("metrics", obs::Registry().ToJson());

  // Companion artifacts: the merged Perfetto trace (load the migration's
  // tree in ui.perfetto.dev — see README) and the coordinator's fleet
  // observability dump. Both deterministic; ctest compares them across runs.
  bool artifacts_ok =
      obs::Tracer().WritePerfettoFile("BENCH_federation_failover_trace.json") &&
      coordinator.fleet_view().WriteJsonFile(fleet_out, clock.now());
  obs::Tracer().SetTimeSource(nullptr);  // clock dies before the global tracer
  obs::Tracer().Enable(false);
  if (!bench::WriteBenchJson("federation_failover", std::move(results)) || !artifacts_ok) {
    return 1;
  }
  return converged ? 0 : 1;
}
