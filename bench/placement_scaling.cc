// Placement scaling: 1,200 tenants across a 4-PoP platform fleet under the
// three placement policies (first_fit, least_loaded, bin_pack), with a
// mid-run Rebalance() pass that drains hot platforms through real
// suspend -> detach -> import live migrations.
//
// What is (and is not) measured: this bench drives the scheduler — admission,
// headroom-filtered policy ranking, real VM installs with real memory
// accounting on the simulated clock — but skips per-deploy SymNet
// verification. Verification cost scales with the *network* snapshot
// (Figure 10 / BENCH_fig10_controller_scaling.json tells that story), is
// O(deployments^2) when every tenant re-checks against all earlier ones, and
// would swamp the placement signal at this tenant count; re-verification
// correctness on migration is proven in tests/scheduler_test.cc instead.
//
// Everything here runs on the deterministic simulator — no wall clock enters
// the JSON, so two runs of this binary produce byte-identical
// BENCH_placement_scaling.json files.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/platform/platform.h"
#include "src/scheduler/engine.h"
#include "src/sim/event_queue.h"

namespace {

using namespace innet;
using platform::InNetPlatform;
using platform::Vm;
using platform::VmKind;

constexpr int kTenants = 1200;
constexpr int kPlatforms = 4;
constexpr uint64_t kPlatformMemory = 16ull << 30;  // 16 GB per box
constexpr int kRebalanceAt = 900;                  // deploys before the drain pass
constexpr double kHotThreshold = 0.70;
constexpr size_t kMaxMovesPerPlatform = 48;
constexpr const char* kEchoConfig = "FromNetfront() -> ToNetfront();";

// Every 10th tenant is a heavyweight Linux guest (512 MB vs 8 MB): total
// demand (~68 GB) oversubscribes the fleet (~64 GB), so the tail of the run
// probes how each policy's fill pattern fragments the remaining headroom.
VmKind TenantKind(int i) { return i % 10 == 9 ? VmKind::kLinux : VmKind::kClickOs; }

Ipv4Address TenantAddr(int i) {
  return Ipv4Address(10, static_cast<uint8_t>(100 + i / 256), static_cast<uint8_t>(i % 256), 1);
}

struct Tenant {
  int index = 0;
  int platform = -1;  // fleet slot, -1 while unplaced
  Vm::VmId vm_id = 0;
  VmKind kind = VmKind::kClickOs;
};

struct Fleet {
  sim::EventQueue clock;
  std::vector<std::unique_ptr<InNetPlatform>> boxes;
  std::vector<std::string> names;

  int IndexOf(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

double MaxUtilization(Fleet& fleet) {
  double max_util = 0;
  for (const auto& box : fleet.boxes) {
    double util = static_cast<double>(box->vms().memory_used()) /
                  static_cast<double>(box->vms().memory_total());
    max_util = util > max_util ? util : max_util;
  }
  return max_util;
}

// Drains every platform above `threshold` by live-migrating ClickOS guests
// to the policy's pick among the cooler platforms: suspend (batched), then
// detach + import, then let the resumes land. Returns completed migrations.
size_t RebalanceFleet(Fleet* fleet, scheduler::PlacementEngine* engine,
                      std::vector<Tenant>* tenants, double threshold) {
  size_t migrations = 0;
  std::vector<scheduler::PlatformResources> snapshot = engine->ledger().Snapshot();
  for (const scheduler::PlatformResources& hot : snapshot) {
    if (hot.utilization() <= threshold) {
      continue;
    }
    int hot_index = fleet->IndexOf(hot.name);
    InNetPlatform* src = fleet->boxes[static_cast<size_t>(hot_index)].get();

    // Pick victims in tenant order: cheap ClickOS guests only (the paper's
    // suspend/resume numbers are ClickOS numbers; Linux guests would also
    // dominate the transfer).
    std::vector<Tenant*> victims;
    for (Tenant& tenant : *tenants) {
      if (tenant.platform == hot_index && tenant.vm_id != 0 &&
          tenant.kind == VmKind::kClickOs) {
        victims.push_back(&tenant);
        if (victims.size() == kMaxMovesPerPlatform) {
          break;
        }
      }
    }

    // Suspend the whole batch, then let every suspend land at once.
    for (Tenant* tenant : victims) {
      src->PrepareMigrationOut(tenant->vm_id);
      src->vms().Suspend(tenant->vm_id);
    }
    fleet->clock.RunUntil(fleet->clock.now() + sim::FromSeconds(2));

    for (Tenant* tenant : victims) {
      // Rank the cooler platforms with the active policy, with the moves of
      // this pass already visible through the live probe.
      std::vector<scheduler::PlatformResources> fresh = engine->ledger().Snapshot();
      std::vector<scheduler::PlatformResources> cool;
      for (scheduler::PlatformResources& res : fresh) {
        if (res.name != hot.name && res.utilization() <= threshold) {
          cool.push_back(std::move(res));
        }
      }
      scheduler::PlacementRequest needs;
      needs.memory_bytes = platform::MemoryBytes(VmKind::kClickOs);
      std::vector<std::string> ranked = scheduler::RankPlatforms(engine->policy(), cool, needs);
      if (ranked.empty()) {
        src->CancelMigrationOut(tenant->vm_id);
        continue;
      }
      auto moved = src->DetachForMigration(tenant->vm_id);
      if (!moved) {
        src->CancelMigrationOut(tenant->vm_id);
        continue;
      }
      int target_index = fleet->IndexOf(ranked.front());
      InNetPlatform* dst = fleet->boxes[static_cast<size_t>(target_index)].get();
      std::string error;
      Vm::VmId new_vm = dst->InstallMigrated(TenantAddr(tenant->index), &moved->snapshot, &error);
      if (new_vm == 0) {
        src->InstallMigrated(TenantAddr(tenant->index), &moved->snapshot, &error);
        continue;
      }
      tenant->platform = target_index;
      tenant->vm_id = new_vm;
      ++migrations;
    }
    fleet->clock.RunUntil(fleet->clock.now() + sim::FromSeconds(2));  // resumes land
  }
  return migrations;
}

obs::json::Value RunPolicy(scheduler::PlacementPolicyKind policy) {
  Fleet fleet;
  for (int i = 0; i < kPlatforms; ++i) {
    fleet.names.push_back("pop" + std::to_string(i));
    fleet.boxes.push_back(std::make_unique<InNetPlatform>(&fleet.clock, kPlatformMemory));
  }
  scheduler::PlacementEngine engine(
      [&fleet](const std::string& name, scheduler::PlatformResources* out) {
        int index = fleet.IndexOf(name);
        if (index < 0) {
          return false;
        }
        InNetPlatform& box = *fleet.boxes[static_cast<size_t>(index)];
        out->memory_total = box.vms().memory_total();
        out->memory_used = box.vms().memory_used();
        out->vm_count = box.vms().vm_count();
        out->running_vms = box.vms().running_count();
        out->buffer_occupancy = box.buffer_occupancy();
        return true;
      },
      policy);
  for (const std::string& name : fleet.names) {
    engine.ledger().AddPlatform(name);
  }

  std::vector<Tenant> tenants(kTenants);
  size_t accepted = 0;
  size_t rejected = 0;
  size_t migrations = 0;
  double mid_max_util = 0;

  for (int i = 0; i < kTenants; ++i) {
    if (i == kRebalanceAt) {
      mid_max_util = MaxUtilization(fleet);
      migrations = RebalanceFleet(&fleet, &engine, &tenants, kHotThreshold);
    }
    Tenant& tenant = tenants[static_cast<size_t>(i)];
    tenant.index = i;
    tenant.kind = TenantKind(i);
    const std::string client = "tenant" + std::to_string(i);
    const uint64_t need = platform::MemoryBytes(tenant.kind);

    scheduler::PlacementRequest request;
    request.memory_bytes = need;
    scheduler::PlacementDecision decision = engine.Decide(client, request);
    if (!decision.admitted) {
      ++rejected;
      continue;
    }
    bool placed = false;
    for (const std::string& candidate : decision.candidates) {
      int index = fleet.IndexOf(candidate);
      std::string error;
      Vm::VmId vm = fleet.boxes[static_cast<size_t>(index)]->Install(
          TenantAddr(i), kEchoConfig, &error, tenant.kind);
      if (vm != 0) {
        tenant.platform = index;
        tenant.vm_id = vm;
        engine.CommitPlacement(client, need);
        placed = true;
        break;
      }
    }
    placed ? ++accepted : ++rejected;
    if (i % 100 == 99) {
      fleet.clock.RunUntil(fleet.clock.now() + sim::FromSeconds(1));  // boots land
    }
  }
  fleet.clock.RunUntil(fleet.clock.now() + sim::FromSeconds(10));
  engine.ledger().ExportHeadroomGauges();

  obs::json::Value row = obs::json::Value::Object();
  row.Set("policy", scheduler::PlacementPolicyName(policy));
  row.Set("tenants", kTenants);
  row.Set("accepted", static_cast<uint64_t>(accepted));
  row.Set("rejected", static_cast<uint64_t>(rejected));
  row.Set("acceptance_rate", static_cast<double>(accepted) / kTenants);
  row.Set("max_memory_utilization", MaxUtilization(fleet));
  row.Set("max_memory_utilization_before_rebalance", mid_max_util);
  row.Set("migrations_performed", static_cast<uint64_t>(migrations));
  obs::json::Value per_platform = obs::json::Value::Array();
  for (int i = 0; i < kPlatforms; ++i) {
    InNetPlatform& box = *fleet.boxes[static_cast<size_t>(i)];
    obs::json::Value entry = obs::json::Value::Object();
    entry.Set("platform", fleet.names[static_cast<size_t>(i)]);
    entry.Set("vms", static_cast<uint64_t>(box.vms().vm_count()));
    entry.Set("memory_used_bytes", box.vms().memory_used());
    entry.Set("utilization", static_cast<double>(box.vms().memory_used()) /
                                 static_cast<double>(box.vms().memory_total()));
    per_platform.Push(std::move(entry));
  }
  row.Set("per_platform", std::move(per_platform));

  std::printf("%-14s %-10zu %-10zu %-12.3f %-12.3f %-12zu\n",
              scheduler::PlacementPolicyName(policy), accepted, rejected,
              static_cast<double>(accepted) / kTenants, MaxUtilization(fleet), migrations);
  return row;
}

}  // namespace

int main() {
  bench::PrintHeader("Placement scaling: 1,200 tenants, 4 platforms, 3 policies");
  std::printf("every 10th tenant is a 512 MB Linux guest; fleet capacity 4 x 16 GB;\n"
              "Rebalance() drains platforms above %.0f%% utilization after %d deploys\n\n",
              kHotThreshold * 100, kRebalanceAt);
  std::printf("%-14s %-10s %-10s %-12s %-12s %-12s\n", "policy", "accepted", "rejected",
              "accept-rate", "max-util", "migrations");
  bench::PrintRule();

  obs::json::Value rows = obs::json::Value::Array();
  for (scheduler::PlacementPolicyKind policy :
       {scheduler::PlacementPolicyKind::kFirstFit, scheduler::PlacementPolicyKind::kLeastLoaded,
        scheduler::PlacementPolicyKind::kBinPack}) {
    rows.Push(RunPolicy(policy));
  }

  std::printf("\nShape check: least_loaded should show the lowest pre-rebalance peak\n"
              "utilization (it spreads) and need no migrations; first_fit and bin_pack\n"
              "fill platform-by-platform and pay for it in the drain pass.\n");

  // Headline series: all values are deterministic placement outcomes, so
  // any drift is a behavior change, not noise.
  bench::BenchSeries series;
  for (size_t i = 0; i < rows.size(); ++i) {
    const obs::json::Value& row = rows.at(i);
    const std::string& policy = row.Find("policy")->string_value();
    series.Add(policy + "_accepted", row.Find("accepted")->number(), "tenants");
    series.Add(policy + "_max_util", row.Find("max_memory_utilization")->number(), "ratio");
    series.Add(policy + "_migrations", row.Find("migrations_performed")->number(), "count");
  }

  obs::json::Value results = obs::json::Value::Object();
  results.Set("policies", std::move(rows));
  results.Set("series", series.ToJson());
  results.Set("metrics", obs::Registry().ToJson());
  bench::WriteBenchJson("placement_scaling", std::move(results));
  return 0;
}
