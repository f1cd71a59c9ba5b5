// Control-plane chaos harness: quantifies the fault-tolerant control plane
// under seeded loss/duplication/reordering, partition windows, and a
// mid-flight controller crash. Not a paper figure — this is the robustness
// acceptance bench for the lossy ControlChannel + idempotent retries + deploy
// journal stack.
//
// Part 1 sweeps control-message loss over a 4-PoP fleet taking channel
// deploys plus one live migration, and reports the retry/dedup economics
// alongside the convergence invariants (no duplicate installs, no stranded
// quota reservations, no tenant left permanently in flight).
//
// Part 2 opens a partition window mid-deployment: ops against the cut-off
// platform retry and give up, the platform keeps serving its installed
// tenants, and the heal-time reconcile squares belief with actuality.
//
// Part 3 crashes the controller with deploys in flight (fleet + journal
// survive, orchestrator belief dies) and replays the journal to convergence.
//
// Everything runs on the simulated clock with a fixed seed, so the JSON
// snapshot is byte-identical across runs — its ctest case runs the bench
// twice and compares both runs with the committed file.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/controller/fleet.h"
#include "src/controller/journal.h"
#include "src/controller/orchestrator.h"
#include "src/obs/metrics.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace {

using namespace innet;
using controller::ClientRequest;
using controller::DeployJournal;
using controller::JournalEntry;
using controller::JournalState;
using controller::Orchestrator;
using controller::OrchestratedDeploy;
using controller::OrchestratorOptions;
using controller::PlatformFleet;

constexpr int kPops = 4;
constexpr int kTenants = 6;  // even split stateful / stateless
constexpr uint64_t kSeed = 42;

ClientRequest StatefulRequest(int i) {
  ClientRequest request;
  request.client_id = "meter" + std::to_string(i);
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> FlowMeter() -> IPRewriter(pattern - - 10.1.0.5 - 0 0) "
      "-> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.1.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.1.0.0/16")};
  return request;
}

ClientRequest StatelessRequest(int i) {
  ClientRequest request;
  request.client_id = "web" + std::to_string(i);
  request.requester = controller::RequesterClass::kClient;
  request.click_config = "FromNetfront() -> IPFilter(allow udp dst port " +
                         std::to_string(1500 + i) +
                         ") -> IPRewriter(pattern - - 10.1.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.1.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.1.0.0/16")};
  return request;
}

// The convergence invariants every scenario must re-establish. `converged`
// is the headline acceptance boolean; the components are kept separate so a
// regression names the broken property.
struct Invariants {
  bool journal_quiescent = false;  // no entry left permanently in flight
  bool no_duplicate_installs = false;
  bool no_stranded_reservations = false;
  size_t placements = 0;
  size_t fleet_vms = 0;
  size_t journal_entries = 0;
  size_t reserved_modules = 0;

  bool converged() const {
    return journal_quiescent && no_duplicate_installs && no_stranded_reservations;
  }
};

Invariants CheckInvariants(Orchestrator& orch) {
  Invariants inv;
  inv.placements = orch.placement_count();
  inv.journal_entries = orch.journal().entries().size();
  inv.journal_quiescent = orch.journal().InFlightCount() == 0;

  // Count actual guests: dedicated VMs must match dedicated placements
  // one-for-one, plus exactly one shared VM per platform with consolidated
  // tenants — a retried/duplicated install that executed twice breaks this.
  size_t expected_vms = 0;
  size_t consolidated_tenants = 0;
  for (const auto& name : orch.fleet().Names()) {
    inv.fleet_vms += orch.fleet().Get(name)->vms().vm_count();
    size_t shared = orch.ConsolidatedTenantCount(name);
    consolidated_tenants += shared;
    if (shared > 0) {
      ++expected_vms;  // the shared VM itself
    }
  }
  // placement_count() == consolidated tenants + dedicated tenants; the
  // dedicated share is the remainder, and each dedicated tenant owns one VM.
  expected_vms += inv.placements - consolidated_tenants;
  inv.no_duplicate_installs = inv.fleet_vms == expected_vms;

  // Quota accounting must equal live placements exactly: a leaked
  // ReservationGuard (or a double release) shows up here.
  for (int i = 0; i < kTenants; ++i) {
    inv.reserved_modules +=
        orch.engine().admission().UsageFor("meter" + std::to_string(i)).modules;
    inv.reserved_modules += orch.engine().admission().UsageFor("web" + std::to_string(i)).modules;
  }
  inv.no_stranded_reservations = inv.reserved_modules == inv.placements;
  return inv;
}

obs::json::Value InvariantsJson(const Invariants& inv) {
  obs::json::Value out = obs::json::Value::Object();
  out.Set("converged", inv.converged());
  out.Set("journal_quiescent", inv.journal_quiescent);
  out.Set("no_duplicate_installs", inv.no_duplicate_installs);
  out.Set("no_stranded_reservations", inv.no_stranded_reservations);
  out.Set("placements", static_cast<uint64_t>(inv.placements));
  out.Set("reserved_modules", static_cast<uint64_t>(inv.reserved_modules));
  out.Set("fleet_vms", static_cast<uint64_t>(inv.fleet_vms));
  out.Set("journal_entries", static_cast<uint64_t>(inv.journal_entries));
  return out;
}

obs::json::Value ChannelJson(Orchestrator& orch) {
  obs::json::Value out = obs::json::Value::Object();
  out.Set("sent", orch.channel().sent());
  out.Set("delivered", orch.channel().delivered());
  out.Set("dropped", orch.channel().dropped());
  out.Set("duplicated", orch.channel().duplicated());
  out.Set("partition_dropped", orch.channel().partition_dropped());
  out.Set("deduped", orch.channel().deduped());
  out.Set("retries", orch.control_client().retries());
  out.Set("timeouts", orch.control_client().timeouts());
  out.Set("giveups", orch.control_client().giveups());
  return out;
}

// --- Part 1: loss sweep ----------------------------------------------------------------

obs::json::Value RunLossScenario(double loss_p, bool* all_converged) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = kSeed;
  plan.control_loss_p = loss_p;
  plan.control_dup_p = 0.2;
  plan.control_reorder_p = 0.1;
  plan.control_delay_mean_ms = 1.0;
  sim::FaultInjector faults(plan);

  Orchestrator orch(topology::Network::MakeMultiPop(kPops), &clock);
  orch.SetControlFaults(&faults);

  int accepted = 0;
  std::string migratable;
  for (int i = 0; i < kTenants; ++i) {
    ClientRequest request = i % 2 == 0 ? StatefulRequest(i) : StatelessRequest(i);
    orch.DeployViaChannel(request, [&, i](const OrchestratedDeploy& result) {
      if (result.outcome.accepted) {
        ++accepted;
        if (i % 2 == 0 && migratable.empty()) {
          migratable = result.outcome.module_id;
        }
      }
    });
    clock.RunUntil(clock.now() + sim::FromSeconds(2));
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  // One live migration under the same fault plan.
  bool migration_ok = false;
  bool migration_done = false;
  if (!migratable.empty()) {
    const auto* placement = orch.FindPlacement(migratable);
    if (placement != nullptr) {
      std::string target;
      for (const auto& name : orch.fleet().Names()) {
        if (name != placement->first) {
          target = name;
          break;
        }
      }
      orch.MigrateTenant(migratable, target, [&](const controller::MigrationReport& report) {
        migration_done = true;
        migration_ok = report.ok;
      });
      clock.RunUntil(clock.now() + sim::FromSeconds(60));
    }
  }

  Invariants inv = CheckInvariants(orch);
  *all_converged = *all_converged && inv.converged() && accepted == kTenants;

  std::printf("%-8.2f %-9d %-8llu %-8llu %-8llu %-8llu %-8llu %-6s %-6s\n", loss_p, accepted,
              static_cast<unsigned long long>(orch.channel().dropped()),
              static_cast<unsigned long long>(orch.channel().duplicated()),
              static_cast<unsigned long long>(orch.channel().deduped()),
              static_cast<unsigned long long>(orch.control_client().retries()),
              static_cast<unsigned long long>(orch.control_client().giveups()),
              migration_done ? (migration_ok ? "ok" : "abort") : "n/a",
              inv.converged() ? "yes" : "NO");

  obs::json::Value out = obs::json::Value::Object();
  out.Set("control_loss_p", loss_p);
  out.Set("accepted", accepted);
  out.Set("migration_done", migration_done);
  out.Set("migration_ok", migration_ok);
  out.Set("channel", ChannelJson(orch));
  out.Set("invariants", InvariantsJson(inv));
  out.Set("sim_end_ns", clock.now());
  return out;
}

// --- Part 2: partition window ----------------------------------------------------------

obs::json::Value RunPartitionWindow(bool* all_converged) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = kSeed;
  plan.control_loss_p = 0.1;
  plan.control_dup_p = 0.1;
  plan.control_delay_mean_ms = 1.0;
  sim::FaultInjector faults(plan);

  Orchestrator orch(topology::Network::MakeMultiPop(kPops), &clock);
  orch.SetControlFaults(&faults);

  // Four tenants land normally.
  int accepted = 0;
  for (int i = 0; i < 4; ++i) {
    orch.DeployViaChannel(i % 2 == 0 ? StatefulRequest(i) : StatelessRequest(i),
                          [&](const OrchestratedDeploy& r) { accepted += r.outcome.accepted; });
    clock.RunUntil(clock.now() + sim::FromSeconds(2));
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  // The window opens: platform0 is cut off. Two deploys pinned at it retry
  // until they give up; its installed tenants keep serving locally.
  orch.SetPartitioned("platform0", true);
  int gave_up = 0;
  for (int i = 4; i < kTenants; ++i) {
    ClientRequest request = StatelessRequest(i);
    request.pinned_platform = "platform0";
    orch.DeployViaChannel(request, [&](const OrchestratedDeploy& r) {
      gave_up += !r.outcome.accepted;
    });
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(60));

  // Heal: SetPartitioned(false) reconciles belief with actual guest state.
  orch.SetPartitioned("platform0", false);
  controller::ReconcileReport heal = orch.ReconcilePlatform("platform0");
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  Invariants inv = CheckInvariants(orch);
  *all_converged = *all_converged && inv.converged() && accepted == 4 && gave_up == 2;

  std::printf("accepted before window:   %d\n", accepted);
  std::printf("gave up during window:    %d (of 2 pinned at the cut-off platform)\n", gave_up);
  std::printf("partition drops:          %llu\n",
              static_cast<unsigned long long>(orch.channel().partition_dropped()));
  std::printf("heal reconcile:           checked=%zu healthy=%zu lost=%zu cleanups=%zu\n",
              heal.checked, heal.healthy, heal.lost, heal.cleanups);
  std::printf("invariants converged:     %s\n", inv.converged() ? "yes" : "NO");

  obs::json::Value out = obs::json::Value::Object();
  out.Set("accepted_before_window", accepted);
  out.Set("gave_up_in_window", gave_up);
  out.Set("heal_checked", static_cast<uint64_t>(heal.checked));
  out.Set("heal_healthy", static_cast<uint64_t>(heal.healthy));
  out.Set("heal_lost", static_cast<uint64_t>(heal.lost));
  out.Set("heal_cleanups", static_cast<uint64_t>(heal.cleanups));
  out.Set("channel", ChannelJson(orch));
  out.Set("invariants", InvariantsJson(inv));
  out.Set("sim_end_ns", clock.now());
  return out;
}

// --- Part 3: controller crash + journal replay -----------------------------------------

obs::json::Value RunControllerCrash(bool* all_converged) {
  sim::EventQueue clock;
  PlatformFleet fleet(&clock, OrchestratorOptions{}.platform_memory_bytes);
  DeployJournal journal;

  size_t inflight_at_crash = 0;
  {
    Orchestrator doomed(topology::Network::MakeMultiPop(kPops), &clock, OrchestratorOptions{},
                        &fleet, &journal);
    // Three tenants reach steady state; then the install path to platform1
    // is cut and two more deploys are stuck in flight when the crash hits.
    for (int i = 0; i < 3; ++i) {
      doomed.DeployViaChannel(i % 2 == 0 ? StatefulRequest(i) : StatelessRequest(i));
      clock.RunUntil(clock.now() + sim::FromSeconds(2));
    }
    doomed.SetPartitioned("platform1", true);
    for (int i = 3; i < 5; ++i) {
      ClientRequest request = i % 2 == 0 ? StatefulRequest(i) : StatelessRequest(i);
      request.pinned_platform = "platform1";
      doomed.DeployViaChannel(request);
    }
    inflight_at_crash = journal.InFlightCount();
  }  // the controller dies here; fleet + journal survive

  // The partition heals while the controller is down, then the successor
  // replays the journal.
  fleet.channel().SetPartitioned("platform1", false);
  Orchestrator successor(topology::Network::MakeMultiPop(kPops), &clock, OrchestratorOptions{},
                         &fleet, &journal);
  controller::RecoveryReport recovery = successor.RecoverFromJournal();
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  Invariants inv = CheckInvariants(successor);
  bool everyone_landed = successor.placement_count() == 5;
  *all_converged = *all_converged && inv.converged() && everyone_landed;

  std::printf("in flight at crash:       %zu\n", inflight_at_crash);
  std::printf("journal replay:           scanned=%zu adopted=%zu completed=%zu resumed=%zu "
              "rolled_back=%zu killed=%zu\n",
              recovery.scanned, recovery.adopted, recovery.completed, recovery.resumed,
              recovery.rolled_back, recovery.killed);
  std::printf("placements after replay:  %zu (of 5 requested)\n", successor.placement_count());
  std::printf("invariants converged:     %s\n", inv.converged() ? "yes" : "NO");

  obs::json::Value out = obs::json::Value::Object();
  out.Set("inflight_at_crash", static_cast<uint64_t>(inflight_at_crash));
  out.Set("scanned", static_cast<uint64_t>(recovery.scanned));
  out.Set("adopted", static_cast<uint64_t>(recovery.adopted));
  out.Set("completed", static_cast<uint64_t>(recovery.completed));
  out.Set("resumed", static_cast<uint64_t>(recovery.resumed));
  out.Set("rolled_back", static_cast<uint64_t>(recovery.rolled_back));
  out.Set("killed", static_cast<uint64_t>(recovery.killed));
  out.Set("placements_after_replay", static_cast<uint64_t>(successor.placement_count()));
  out.Set("all_tenants_landed", everyone_landed);
  out.Set("channel", ChannelJson(successor));
  out.Set("invariants", InvariantsJson(inv));
  out.Set("sim_end_ns", clock.now());
  return out;
}

}  // namespace

int main() {
  // Everything below runs on the simulated clock with seed 42; the registry
  // dump and every number in the JSON are deterministic by construction.
  obs::Registry().ResetValues();
  bool all_converged = true;

  bench::PrintHeader("Control chaos: loss sweep (dup 0.2, reorder 0.1, delay 1 ms, seed 42)");
  std::printf("%-8s %-9s %-8s %-8s %-8s %-8s %-8s %-6s %-6s\n", "loss", "accepted", "drops",
              "dups", "deduped", "retries", "giveups", "migr", "conv");
  bench::PrintRule();
  obs::json::Value sweep = obs::json::Value::Array();
  for (double loss : {0.0, 0.1, 0.25, 0.4}) {
    sweep.Push(RunLossScenario(loss, &all_converged));
  }

  bench::PrintHeader("Partition window: cut-off platform, give-ups, heal-time reconcile");
  obs::json::Value partition = RunPartitionWindow(&all_converged);

  bench::PrintHeader("Controller crash: journal replay over the surviving fleet");
  obs::json::Value crash = RunControllerCrash(&all_converged);

  std::printf("\noverall: %s\n", all_converged ? "ALL SCENARIOS CONVERGED"
                                               : "CONVERGENCE FAILURE (see above)");

  // Headline series: everything here is a seeded deterministic outcome, so
  // one extra retry under the same seed means the retry machinery changed.
  bench::BenchSeries series;
  series.Add("all_converged", all_converged ? 1.0 : 0.0, "bool");
  double sweep_accepted = 0;
  double sweep_retries = 0;
  double sweep_giveups = 0;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const obs::json::Value& row = sweep.at(i);
    sweep_accepted += row.Find("accepted")->number();
    const obs::json::Value* channel = row.Find("channel");
    sweep_retries += channel->Find("retries")->number();
    sweep_giveups += channel->Find("giveups")->number();
  }
  series.Add("sweep_accepted", sweep_accepted, "tenants");
  series.Add("sweep_retries", sweep_retries, "count");
  series.Add("sweep_giveups", sweep_giveups, "count");
  series.Add("crash_placements_after_replay",
             crash.Find("placements_after_replay")->number(), "count");

  obs::json::Value results = obs::json::Value::Object();
  results.Set("seed", kSeed);
  results.Set("all_converged", all_converged);
  results.Set("series", series.ToJson());
  results.Set("loss_sweep", std::move(sweep));
  results.Set("partition_window", std::move(partition));
  results.Set("controller_crash", std::move(crash));
  results.Set("metrics", obs::Registry().ToJson());
  if (!bench::WriteBenchJson("control_chaos", std::move(results))) {
    return 1;
  }
  return all_converged ? 0 : 1;
}
