// Byte-for-byte goldens for the orchestrator's control plane: every way a
// tenant enters, moves through or leaves the orchestrator, rendered as the
// deploy journal, the tracer's event stream (kind, target, detail, value,
// simulated time and parent event; no wall-clock field is recorded), the
// per-tenant health records, and the orchestrator's resulting belief
// (placements, shared-VM membership, quota usage, INT attestation keys).
//
// Scenarios, one per entry path: synchronous Deploy (consolidated,
// dedicated, admission rejection, verification rejection, Kill);
// DeployViaChannel under a seeded lossy plan with a give-up behind a
// partition; stateless and stateful MigrateTenant including target
// verification aborts; a stateful migration whose target import fails (the
// source re-adopts the guest and replays its parked traffic) and one whose
// cut-over ack is lost (rolled forward); MarkPlatformFailed; a controller
// crash over intent, consolidated verified, dedicated verified and placed
// entries, then RecoverFromJournal; a crash in the middle of a stateful
// migration (while suspending, after the export, after the import ack, and
// after the import ack with the target guest gone), then RecoverFromJournal;
// ExportTenant followed by AdoptMigrated with and without a frozen guest.
//
// A mismatch writes the rendering to <name>.actual.txt in the test's working
// directory; copy it over tests/golden/deploy/<name>.txt only when the change
// in control-plane behaviour is deliberate.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/controller/fleet.h"
#include "src/controller/journal.h"
#include "src/controller/orchestrator.h"
#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

using platform::VmState;

// Resets the process-wide tracer, health monitor, INT collector and registry
// values around a scenario, so each golden is the same whether a test runs
// alone or after the others in one process.
class ObsGuard {
 public:
  explicit ObsGuard(sim::EventQueue* clock) {
    obs::Registry().ResetValues();
    obs::Tracer().Clear();
    obs::Tracer().Enable();
    obs::Tracer().SetTimeSource([clock] { return clock->now(); });
    obs::Health().Clear();
    obs::Health().Enable();
    obs::Int().Clear();
  }
  ~ObsGuard() {
    obs::Int().Clear();
    obs::Health().Enable(false);
    obs::Health().Clear();
    obs::Tracer().Enable(false);
    obs::Tracer().SetTimeSource(nullptr);
    obs::Tracer().Clear();
  }
};

ClientRequest MeterRequest(const std::string& client_id, const std::string& client_addr,
                           const std::string& owned_prefix) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = RequesterClass::kClient;
  request.click_config = "FromNetfront() -> FlowMeter() -> IPRewriter(pattern - - " +
                         client_addr + " - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse(client_addr)};
  request.owned_prefixes = {Ipv4Prefix::MustParse(owned_prefix)};
  return request;
}

ClientRequest StatelessRequest(const std::string& client_id, uint16_t port) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port " + std::to_string(port) +
      ") -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

// The reach requirement only holds on platform3 (directly reachable from the
// Internet): pinning or migrating the tenant elsewhere fails verification.
constexpr const char* kInternetReach =
    "reach from internet udp -> client dst port 1500 const proto && dst port && payload";

ClientRequest ReachRequest(const std::string& client_id, bool stateful) {
  ClientRequest request = StatelessRequest(client_id, 1500);
  if (stateful) {
    request.click_config =
        "FromNetfront() -> IPFilter(allow udp dst port 1500) -> "
        "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> TimedUnqueue(120,100) -> "
        "dst :: ToNetfront();";
  }
  request.requirements = kInternetReach;
  return request;
}

std::string EventLines() {
  std::ostringstream out;
  const std::vector<obs::TraceEvent>& events = obs::Tracer().events();
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& event = events[i];
    index_of[event.span] = i;
    out << i << " t=" << event.time_ns << ' ' << obs::EventKindName(event.kind) << ' '
        << event.target << " | " << event.detail << " | " << event.value << " | parent=";
    if (event.parent == 0) {
      out << '-';
    } else if (auto it = index_of.find(event.parent); it != index_of.end()) {
      out << it->second;
    } else {
      out << '?';
    }
    out << '\n';
  }
  return out.str();
}

// What the orchestrator believes after the scenario, keyed by everything the
// journal ever named.
std::string BeliefLines(Orchestrator& orch) {
  std::ostringstream out;
  std::set<std::string> modules;
  std::set<std::string> clients;
  std::set<std::string> attest_keys;
  for (const JournalEntry& entry : orch.journal().entries()) {
    if (!entry.module_id.empty()) {
      modules.insert(entry.module_id);
    }
    clients.insert(entry.request.client_id);
    attest_keys.insert(entry.request.client_id);
    if (!entry.addr.empty()) {
      attest_keys.insert(entry.addr);
    }
  }
  out << "placements=" << orch.placement_count() << '\n';
  for (const std::string& module_id : modules) {
    const auto* placement = orch.FindPlacement(module_id);
    out << "module " << module_id << ": ";
    if (placement == nullptr) {
      out << "absent\n";
    } else {
      out << placement->first << " vm=" << placement->second << '\n';
    }
  }
  for (const std::string& name : orch.fleet().Names()) {
    out << "platform " << name << ": vms=" << orch.platform(name)->vms().vm_count()
        << " consolidated=" << orch.ConsolidatedTenantCount(name) << '\n';
  }
  for (const std::string& client : clients) {
    auto usage = orch.engine().admission().UsageFor(client);
    out << "usage " << client << ": modules=" << usage.modules
        << " bytes=" << usage.memory_bytes << '\n';
  }
  for (const std::string& key : attest_keys) {
    out << "digest " << key << ": " << (obs::Int().HasTenantDigest(key) ? "yes" : "no") << '\n';
  }
  return out.str();
}

// One orchestrator's journal and belief.
std::string RenderOrchestrator(Orchestrator& orch) {
  return "== journal ==\n" + orch.journal().ToJson().ToString(1) + "\n== belief ==\n" +
         BeliefLines(orch);
}

// The process-wide health records and trace stream.
std::string RenderObservability() {
  return "== health ==\n" + obs::Health().ToJson().ToString(1) + "\n== trace ==\n" +
         EventLines();
}

std::string Render(Orchestrator& orch) { return RenderOrchestrator(orch) + RenderObservability(); }

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(INNET_GOLDEN_DIR) + "/" + name + ".txt", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectGolden(const std::string& name, const std::string& actual) {
  std::string expected = ReadGolden(name);
  if (actual != expected) {
    std::ofstream(name + ".actual.txt", std::ios::binary) << actual;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden " << name;
  EXPECT_EQ(actual, expected) << "golden " << name << " differs; see " << name << ".actual.txt";
}

TEST(DeployGolden, SyncDeploy) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  orch.engine().admission().SetQuota("capped", scheduler::TenantQuota{.max_modules = 1});

  auto consolidated = orch.Deploy(StatelessRequest("web", 1500));
  ASSERT_TRUE(consolidated.outcome.accepted) << consolidated.outcome.reason;
  ASSERT_TRUE(consolidated.consolidated);
  auto neighbour = orch.Deploy(StatelessRequest("web2", 1600));
  ASSERT_TRUE(neighbour.outcome.accepted) << neighbour.outcome.reason;
  auto dedicated = orch.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
  ASSERT_TRUE(dedicated.outcome.accepted) << dedicated.outcome.reason;
  ASSERT_NE(dedicated.vm_id, 0u);
  ASSERT_TRUE(orch.Deploy(MeterRequest("capped", "10.20.0.5", "10.20.0.0/24")).outcome.accepted);
  auto over_quota = orch.Deploy(MeterRequest("capped", "10.20.0.5", "10.20.0.0/24"));
  EXPECT_FALSE(over_quota.outcome.accepted);
  ClientRequest pinned = ReachRequest("pinned", /*stateful=*/true);
  pinned.pinned_platform = "platform1";
  auto unverifiable = orch.Deploy(pinned);
  EXPECT_FALSE(unverifiable.outcome.accepted);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  EXPECT_TRUE(orch.Kill(consolidated.outcome.module_id));
  EXPECT_TRUE(orch.Kill(dedicated.outcome.module_id));
  EXPECT_FALSE(orch.Kill(dedicated.outcome.module_id));
  ExpectGolden("sync_deploy", Render(orch));
}

TEST(DeployGolden, ChannelDeployUnderLoss) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.control_loss_p = 0.25;
  plan.control_dup_p = 0.25;
  plan.control_reorder_p = 0.2;
  plan.control_delay_mean_ms = 1.0;
  sim::FaultInjector faults(plan);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  orch.SetControlFaults(&faults);

  std::vector<OrchestratedDeploy> done;
  auto record = [&done](const OrchestratedDeploy& r) { done.push_back(r); };
  orch.DeployViaChannel(StatelessRequest("web", 1500), record);
  orch.DeployViaChannel(StatelessRequest("web2", 1600), record);
  orch.DeployViaChannel(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"), record);
  ClientRequest pinned = ReachRequest("pinned", /*stateful=*/false);
  pinned.pinned_platform = "platform1";
  orch.DeployViaChannel(pinned, record);  // verification rejection
  clock.RunUntil(clock.now() + sim::FromSeconds(30));

  // Cut platform1 off: a pinned install and a pinned rebuild retry, give up,
  // roll back and leave cleanups for the heal.
  orch.SetPartitioned("platform1", true);
  ClientRequest blocked = MeterRequest("blocked", "10.20.0.5", "10.20.0.0/24");
  blocked.pinned_platform = "platform1";
  orch.DeployViaChannel(blocked, record);
  ClientRequest blocked_web = StatelessRequest("blocked_web", 1700);
  blocked_web.pinned_platform = "platform1";
  orch.DeployViaChannel(blocked_web, record);
  clock.RunUntil(clock.now() + sim::FromSeconds(60));
  orch.SetPartitioned("platform1", false);
  clock.RunUntil(clock.now() + sim::FromSeconds(5));

  ASSERT_EQ(done.size(), 6u);
  ExpectGolden("channel_lossy", Render(orch));
}

TEST(DeployGolden, StatelessMigration) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  auto web = orch.Deploy(StatelessRequest("web", 1500));
  ASSERT_TRUE(web.outcome.accepted) << web.outcome.reason;
  auto reach = orch.Deploy(ReachRequest("reach", /*stateful=*/false));
  ASSERT_TRUE(reach.outcome.accepted) << reach.outcome.reason;
  ASSERT_TRUE(reach.consolidated);
  ASSERT_EQ(reach.outcome.platform, "platform3");

  std::vector<MigrationReport> reports;
  auto record = [&reports](const MigrationReport& r) { reports.push_back(r); };
  const std::string target = web.outcome.platform == "platform2" ? "platform1" : "platform2";
  EXPECT_TRUE(orch.MigrateTenant(web.outcome.module_id, target, record).started);
  EXPECT_TRUE(orch.MigrateTenant(reach.outcome.module_id, "platform1", record).started);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok) << reports[0].reason;
  EXPECT_FALSE(reports[1].ok);
  ExpectGolden("migrate_stateless", Render(orch));
}

TEST(DeployGolden, StatefulMigration) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  auto meter = orch.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
  ASSERT_TRUE(meter.outcome.accepted) << meter.outcome.reason;
  auto reach = orch.Deploy(ReachRequest("reach", /*stateful=*/true));
  ASSERT_TRUE(reach.outcome.accepted) << reach.outcome.reason;
  ASSERT_NE(reach.vm_id, 0u);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  std::vector<MigrationReport> reports;
  auto record = [&reports](const MigrationReport& r) { reports.push_back(r); };
  const std::string target = meter.outcome.platform == "platform2" ? "platform1" : "platform2";
  EXPECT_TRUE(orch.MigrateTenant(meter.outcome.module_id, target, record).started);
  clock.RunUntil(clock.now() + sim::FromSeconds(2));
  EXPECT_TRUE(orch.MigrateTenant(reach.outcome.module_id, "platform1", record).started);
  clock.RunUntil(clock.now() + sim::FromSeconds(2));

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok) << reports[0].reason;
  EXPECT_FALSE(reports[1].ok);
  ExpectGolden("migrate_stateful", Render(orch));
}

// A stateful migration that loses its target import (the target is full) and
// re-adopts the guest on the source, replaying the parked traffic there;
// then one whose cut-over ack is lost behind a partition and rolls forward.
TEST(DeployGolden, StatefulMigrationFailures) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  OrchestratorOptions options;
  options.platform_memory_bytes = 2 * options.cost_model.MemoryBytes(platform::VmKind::kClickOs);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);
  auto meter = orch.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
  ASSERT_TRUE(meter.outcome.accepted) << meter.outcome.reason;
  ASSERT_EQ(meter.outcome.platform, "platform1");
  for (const auto& [client, addr, prefix] :
       {std::tuple{"fill1", "10.20.0.5", "10.20.0.0/24"},
        std::tuple{"fill2", "10.30.0.5", "10.30.0.0/24"}}) {
    ClientRequest filler = MeterRequest(client, addr, prefix);
    filler.pinned_platform = "platform2";
    ASSERT_TRUE(orch.Deploy(filler).outcome.accepted);
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  std::vector<MigrationReport> reports;
  auto record = [&reports](const MigrationReport& r) { reports.push_back(r); };
  // platform2 verifies but has no memory left for the imported guest.
  ASSERT_TRUE(orch.MigrateTenant(meter.outcome.module_id, "platform2", record).started);
  for (uint16_t port : {4000, 4001}) {
    Packet packet = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                    meter.outcome.module_addr, port, 53, 64);
    orch.platform("platform1")->HandlePacket(packet);
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(2));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_EQ(reports[0].parked_packets, 2u);
  ASSERT_TRUE(orch.HasPlacement(meter.outcome.module_id));

  // A delayed channel lets the partition fall between the import ack and
  // the cut-over ack.
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.control_delay_mean_ms = 2.0;
  sim::FaultInjector faults(plan);
  orch.SetControlFaults(&faults);
  ASSERT_TRUE(orch.MigrateTenant(meter.outcome.module_id, "platform3", record).started);
  const uint64_t migration = orch.journal().entries().back().id;
  while (orch.journal().Find(migration)->state != JournalState::kPlaced && clock.Run(1) == 1) {
  }
  ASSERT_EQ(orch.journal().Find(migration)->state, JournalState::kPlaced);
  orch.SetPartitioned("platform3", true);
  clock.RunUntil(clock.now() + sim::FromSeconds(60));
  orch.SetPartitioned("platform3", false);
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  orch.SetControlFaults(nullptr);

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[1].ok) << reports[1].reason;
  EXPECT_EQ(reports[1].parked_packets, 0u);
  ExpectGolden("migrate_failures", Render(orch));
}

TEST(DeployGolden, PlatformFailover) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  for (const char* client : {"web", "web2"}) {
    ClientRequest request = StatelessRequest(client, client[3] == '2' ? 1600 : 1500);
    request.pinned_platform = "platform2";
    ASSERT_TRUE(orch.Deploy(request).outcome.accepted);
  }
  ClientRequest meter = MeterRequest("meter", "10.10.0.5", "10.10.0.0/24");
  meter.pinned_platform = "platform2";
  ASSERT_TRUE(orch.Deploy(meter).outcome.accepted);
  ASSERT_TRUE(orch.Deploy(ReachRequest("reach", /*stateful=*/true)).outcome.accepted);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  FailoverReport report = orch.MarkPlatformFailed("platform2");
  EXPECT_EQ(report.tenants_affected, 3u);
  EXPECT_EQ(report.recovered, 3u);
  EXPECT_TRUE(orch.MarkPlatformFailed("platform2").already_failed);
  FailoverReport lost = orch.MarkPlatformFailed("platform3");
  EXPECT_EQ(lost.lost, 1u);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));
  ExpectGolden("failover", Render(orch));
}

TEST(DeployGolden, CrashRecovery) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  PlatformFleet fleet(&clock, platform::VmCostModel{},
                      OrchestratorOptions{}.platform_memory_bytes);
  DeployJournal journal;
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock, OrchestratorOptions{}, &fleet,
                      &journal);
    // Live before the crash: one consolidated and one dedicated tenant.
    ClientRequest live_web = StatelessRequest("live_web", 1400);
    live_web.pinned_platform = "platform1";
    ASSERT_TRUE(orch.Deploy(live_web).outcome.accepted);
    ASSERT_TRUE(orch.Deploy(MeterRequest("live", "10.30.0.5", "10.30.0.0/24")).outcome.accepted);
    clock.RunUntil(clock.now() + sim::FromSeconds(1));
    // Placed, confirm chain not yet run.
    std::optional<OrchestratedDeploy> placed;
    orch.DeployViaChannel(MeterRequest("placed", "10.20.0.5", "10.20.0.0/24"),
                          [&](const OrchestratedDeploy& r) { placed = r; });
    ASSERT_TRUE(placed.has_value() && placed->outcome.accepted);
    // Verified, install and rebuild in flight behind a partition.
    orch.SetPartitioned("platform1", true);
    ClientRequest stuck_web = StatelessRequest("stuck_web", 1500);
    stuck_web.pinned_platform = "platform1";
    orch.DeployViaChannel(stuck_web, nullptr);
    ClientRequest stuck = MeterRequest("stuck", "10.40.0.5", "10.40.0.0/24");
    stuck.pinned_platform = "platform1";
    orch.DeployViaChannel(stuck, nullptr);
    // Intent only: crashed between the WAL write and verification.
    journal.Begin(JournalEntryKind::kDeploy, StatelessRequest("intent", 1600), clock.now());
  }  // crash
  fleet.channel().SetPartitioned("platform1", false);

  Orchestrator successor(topology::Network::MakeFigure3(), &clock, OrchestratorOptions{},
                         &fleet, &journal);
  RecoveryReport report = successor.RecoverFromJournal();
  EXPECT_EQ(report.adopted, 2u);
  EXPECT_EQ(report.completed, 1u);
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_EQ(journal.InFlightCount(), 0u);
  // live_web, stuck_web and the re-placed intent share one VM.
  EXPECT_EQ(successor.ConsolidatedTenantCount("platform1"), 3u);
  ExpectGolden("recovery", Render(successor));
}

// How far a stateful migration got before the controller crashed.
enum class CrashPoint {
  kSuspending,    // the suspend landed; nothing exported yet
  kExported,      // the snapshot left the source; the import is unacked
  kImported,      // the target acked the import; the cut-over is unacked
  kTargetLost,    // as kImported, and the imported guest is gone by recovery
};

// Migrates a stateful tenant over a delayed channel, destroys the
// orchestrator once the migration reaches `point`, lets the messages still
// on the wire land, and recovers with a successor. Returns the successor's
// rendering and recovery report.
std::string CrashMidMigration(CrashPoint point) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  sim::FaultPlan plan;
  plan.seed = 9;
  plan.control_delay_mean_ms = 2.0;
  sim::FaultInjector faults(plan);
  PlatformFleet fleet(&clock, platform::VmCostModel{},
                      OrchestratorOptions{}.platform_memory_bytes);
  DeployJournal journal;
  std::string target;
  uint64_t migration = 0;
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock, OrchestratorOptions{}, &fleet,
                      &journal);
    auto meter = orch.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
    EXPECT_TRUE(meter.outcome.accepted) << meter.outcome.reason;
    clock.RunUntil(clock.now() + sim::FromSeconds(1));
    orch.SetControlFaults(&faults);
    target = meter.outcome.platform == "platform2" ? "platform1" : "platform2";
    EXPECT_TRUE(orch.MigrateTenant(meter.outcome.module_id, target).started);
    migration = journal.entries().back().id;
    const std::string source = meter.outcome.platform;
    auto reached = [&] {
      const JournalEntry* e = journal.Find(migration);
      switch (point) {
        case CrashPoint::kSuspending:
          return fleet.Get(source)->vms().Find(meter.vm_id)->state() != VmState::kRunning;
        case CrashPoint::kExported:
          return e->exported;
        case CrashPoint::kImported:
        case CrashPoint::kTargetLost:
          return e->state == JournalState::kPlaced;
      }
      return false;
    };
    while (!reached() && clock.Run(1) == 1) {
    }
    EXPECT_TRUE(reached());
  }  // crash
  clock.RunUntil(clock.now() + sim::FromSeconds(1));
  if (point == CrashPoint::kTargetLost) {
    EXPECT_TRUE(fleet.Get(target)->UninstallVm(journal.Find(migration)->vm_id));
  }
  fleet.SetControlFaults(nullptr);

  Orchestrator successor(topology::Network::MakeFigure3(), &clock, OrchestratorOptions{},
                         &fleet, &journal);
  RecoveryReport report = successor.RecoverFromJournal();
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_EQ(journal.InFlightCount(), 0u);
  std::ostringstream counts;
  counts << "== recovery ==\nscanned=" << report.scanned << " adopted=" << report.adopted
         << " completed=" << report.completed << " resumed=" << report.resumed
         << " rolled_back=" << report.rolled_back << " killed=" << report.killed << '\n';
  return counts.str() + Render(successor);
}

TEST(DeployGolden, CrashMidMigration) {
  ExpectGolden("recovery_migration",
               "=== crash while suspending ===\n" + CrashMidMigration(CrashPoint::kSuspending) +
                   "=== crash after export ===\n" + CrashMidMigration(CrashPoint::kExported) +
                   "=== crash after import ===\n" + CrashMidMigration(CrashPoint::kImported) +
                   "=== crash after import, target guest lost ===\n" +
                   CrashMidMigration(CrashPoint::kTargetLost));
}

TEST(DeployGolden, ExportThenAdopt) {
  sim::EventQueue clock;
  ObsGuard guard(&clock);
  Orchestrator home(topology::Network::MakeFigure3(), &clock);
  Orchestrator away(topology::Network::MakeFigure3(), &clock);
  auto web = home.Deploy(StatelessRequest("web", 1500));
  ASSERT_TRUE(web.outcome.accepted) << web.outcome.reason;
  auto meter = home.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
  ASSERT_TRUE(meter.outcome.accepted) << meter.outcome.reason;
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  std::map<std::string, TenantExport> exports;
  for (const std::string& module_id :
       {web.outcome.module_id, meter.outcome.module_id, std::string("no-such-module")}) {
    home.ExportTenant(module_id,
                      [&exports, module_id](const TenantExport& out) { exports[module_id] = out; });
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(1));
  ASSERT_EQ(exports.size(), 3u);
  const TenantExport& web_out = exports[web.outcome.module_id];
  const TenantExport& meter_out = exports[meter.outcome.module_id];
  ASSERT_TRUE(web_out.ok) << web_out.error;
  ASSERT_TRUE(meter_out.ok) << meter_out.error;
  EXPECT_FALSE(exports["no-such-module"].ok);
  EXPECT_EQ(web_out.moved, nullptr);
  ASSERT_NE(meter_out.moved, nullptr);

  TenantAdopt stateless = away.AdoptMigrated(web_out.request, web_out.moved);
  EXPECT_TRUE(stateless.ok) << stateless.error;
  TenantAdopt stateful = away.AdoptMigrated(meter_out.request, meter_out.moved);
  EXPECT_TRUE(stateful.ok) << stateful.error;
  clock.RunUntil(clock.now() + sim::FromSeconds(1));
  ExpectGolden("export_adopt", "== home ==\n" + RenderOrchestrator(home) + "== away ==\n" +
                                  RenderOrchestrator(away) + RenderObservability());
}

}  // namespace
}  // namespace innet::controller
