// Fault-tolerant control plane: the lossy/partitionable control channel,
// idempotent (tenant, op, epoch) tokens with platform-side dedup, retrying
// orchestrator client, the write-ahead deploy journal, and crash recovery.
// The invariants under test: no duplicate installs under loss/duplication,
// no stranded quota reservations on any failure path, no tenant left
// permanently in-flight, and byte-identical journals across seeded runs.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/click/elements.h"
#include "src/controller/control_channel.h"
#include "src/controller/fleet.h"
#include "src/controller/journal.h"
#include "src/controller/orchestrator.h"
#include "src/obs/metrics.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

using platform::Vm;
using platform::VmState;

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

// Every journal entry either completed (cut over) or terminated cleanly —
// nothing is stuck in flight.
void ExpectJournalConverged(const DeployJournal& journal) {
  EXPECT_EQ(journal.InFlightCount(), 0u);
  for (const JournalEntry& entry : journal.entries()) {
    EXPECT_TRUE(entry.state == JournalState::kCutover ||
                DeployJournal::IsTerminal(entry.state))
        << "entry " << entry.id << " stuck in " << JournalStateName(entry.state);
  }
}

// --- The channel + endpoint primitives -------------------------------------------------

TEST(ControlEndpoint, DedupsByTokenAndBypassesForEpochZero) {
  sim::EventQueue clock;
  ControlChannel channel(&clock);
  int executions = 0;
  channel.RegisterEndpoint("box", [&](const ControlRequest&, RespondFn respond) {
    ++executions;
    ControlResponse response;
    response.ok = true;
    response.vm_id = 7;
    respond(response);
  });

  ControlRequest request;
  request.op = ControlOp::kInstall;
  request.tenant = "t1";
  request.attempt_epoch = 3;
  std::vector<ControlResponse> responses;
  for (int i = 0; i < 3; ++i) {
    channel.Send("box", request, [&](ControlResponse r) { responses.push_back(r); });
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(executions, 1);  // replays answered from the dedup cache
  EXPECT_FALSE(responses[0].duplicate);
  EXPECT_TRUE(responses[1].duplicate);
  EXPECT_TRUE(responses[2].duplicate);
  EXPECT_EQ(responses[2].vm_id, 7u);  // cached payload, not a re-execution

  // A different epoch is a different logical operation.
  request.attempt_epoch = 4;
  channel.Send("box", request, [&](ControlResponse r) { responses.push_back(r); });
  EXPECT_EQ(executions, 2);

  // Epoch 0 marks a non-mutating op: no dedup memory at all.
  request.attempt_epoch = 0;
  channel.Send("box", request, [&](ControlResponse r) { responses.push_back(r); });
  channel.Send("box", request, [&](ControlResponse r) { responses.push_back(r); });
  EXPECT_EQ(executions, 4);
}

TEST(ControlEndpoint, RepliesWhileExecutingQueueAsWaiters) {
  sim::EventQueue clock;
  ControlChannel channel(&clock);
  RespondFn complete;  // captured: the op finishes only when we say so
  channel.RegisterEndpoint("box", [&](const ControlRequest&, RespondFn respond) {
    complete = std::move(respond);
  });
  ControlRequest request;
  request.op = ControlOp::kSuspend;
  request.tenant = "t1";
  request.attempt_epoch = 1;
  int answers = 0;
  channel.Send("box", request, [&](ControlResponse) { ++answers; });
  channel.Send("box", request, [&](ControlResponse) { ++answers; });  // retry mid-execution
  EXPECT_EQ(answers, 0);
  ControlResponse response;
  response.ok = true;
  complete(response);  // the one completion answers both
  EXPECT_EQ(answers, 2);
}

TEST(ControlChannel, PartitionEatsBothLegsSilently) {
  sim::EventQueue clock;
  ControlChannel channel(&clock);
  int executions = 0;
  channel.RegisterEndpoint("box", [&](const ControlRequest&, RespondFn respond) {
    ++executions;
    ControlResponse response;
    response.ok = true;
    respond(response);
  });
  channel.SetPartitioned("box", true);
  EXPECT_FALSE(channel.ideal());
  ControlRequest request;
  request.tenant = "t1";
  request.attempt_epoch = 1;
  bool answered = false;
  channel.Send("box", request, [&](ControlResponse) { answered = true; });
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_EQ(executions, 0);
  EXPECT_FALSE(answered);
  EXPECT_EQ(channel.partition_dropped(), 1u);
  channel.SetPartitioned("box", false);
  EXPECT_TRUE(channel.ideal());
}

TEST(ControlClient, RetriesThenGivesUpAgainstPartition) {
  sim::EventQueue clock;
  ControlChannel channel(&clock);
  channel.RegisterEndpoint("box", [](const ControlRequest&, RespondFn respond) {
    ControlResponse response;
    response.ok = true;
    respond(response);
  });
  channel.SetPartitioned("box", true);
  ControlRetryPolicy policy;
  policy.max_attempts = 3;
  ControlClient client(&clock, &channel, policy);
  ControlRequest request;
  request.op = ControlOp::kInstall;
  request.tenant = "t1";
  request.attempt_epoch = 1;
  std::optional<ControlResponse> result;
  client.Issue("box", request, [&](ControlResponse r) { result = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_TRUE(result->gave_up);
  EXPECT_NE(result->error.find("gave up after 3 attempts"), std::string::npos);
  EXPECT_EQ(client.retries(), 2u);   // attempts 2 and 3
  EXPECT_EQ(client.timeouts(), 3u);  // every attempt timed out
  EXPECT_EQ(client.giveups(), 1u);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(PlatformReplace, DedupMemoryResetLetsPreFailureTokenReexecute) {
  sim::EventQueue clock;
  PlatformFleet fleet(&clock, OrchestratorOptions{}.platform_memory_bytes);
  fleet.AddPlatform("box");
  const uint64_t replaced_before =
      obs::Registry().GetCounter("innet_platform_replaced_total")->value();

  ControlRequest install;
  install.op = ControlOp::kInstall;
  install.tenant = "web";
  install.attempt_epoch = 5;
  install.addr = Ipv4Address::MustParse("172.16.10.2");
  install.config_text =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) -> "
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  install.whitelist = {Ipv4Address::MustParse("10.10.0.5")};

  ControlResponse first = fleet.channel().DeliverDirect("box", install);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.duplicate);
  EXPECT_EQ(fleet.Get("box")->vms().vm_count(), 1u);

  // A retry of the same token against the same machine is absorbed.
  ControlResponse replay = fleet.channel().DeliverDirect("box", install);
  EXPECT_TRUE(replay.ok);
  EXPECT_TRUE(replay.duplicate);
  EXPECT_EQ(replay.vm_id, first.vm_id);
  EXPECT_EQ(fleet.Get("box")->vms().vm_count(), 1u);

  // Replace the node: the fresh machine has no dedup memory, so the same
  // pre-failure token re-executes — counted as a fresh install, not silently
  // answered from a cache the replacement cannot have.
  fleet.Replace("box");
  EXPECT_EQ(obs::Registry().GetCounter("innet_platform_replaced_total")->value(),
            replaced_before + 1);
  ControlResponse reexecuted = fleet.channel().DeliverDirect("box", install);
  ASSERT_TRUE(reexecuted.ok) << reexecuted.error;
  EXPECT_FALSE(reexecuted.duplicate);
  EXPECT_EQ(fleet.Get("box")->vms().vm_count(), 1u);  // on the new instance
}

// --- Channel deploys under faults ------------------------------------------------------

TEST(ChannelDeploy, IdealChannelCompletesInline) {
  sim::EventQueue clock;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  std::optional<OrchestratedDeploy> result;
  orch.DeployViaChannel(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"),
                        [&](const OrchestratedDeploy& r) { result = r; });
  // No faults, no partitions: the whole flow ran before the call returned.
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->outcome.accepted) << result->outcome.reason;
  const JournalEntry* entry = orch.journal().Find(result->journal_id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, JournalState::kPlaced);  // confirm chain still pending
  // The confirmation probes walk it to steady state.
  clock.RunUntil(clock.now() + sim::FromSeconds(5));
  EXPECT_EQ(entry->state, JournalState::kCutover);
  ExpectJournalConverged(orch.journal());
}

TEST(ChannelDeploy, LossyChannelConvergesWithNoDuplicateInstall) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.control_loss_p = 0.25;
  plan.control_dup_p = 0.25;
  plan.control_reorder_p = 0.2;
  plan.control_delay_mean_ms = 1.0;
  sim::FaultInjector faults(plan);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  orch.SetControlFaults(&faults);

  std::optional<OrchestratedDeploy> result;
  orch.DeployViaChannel(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"),
                        [&](const OrchestratedDeploy& r) { result = r; });
  EXPECT_FALSE(result.has_value());  // faulty channel: nothing is synchronous
  clock.RunUntil(clock.now() + sim::FromSeconds(60));

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->outcome.accepted) << result->outcome.reason;
  // Exactly one guest exists, no matter how many times the install was
  // retried or duplicated on the wire.
  EXPECT_EQ(orch.platform(result->outcome.platform)->vms().vm_count(), 1u);
  EXPECT_EQ(orch.placement_count(), 1u);
  EXPECT_EQ(orch.engine().admission().UsageFor("meter").modules, 1u);
  ExpectJournalConverged(orch.journal());
  // The fault plan actually bit: losses and/or duplicates happened, and the
  // duplicates were answered from the dedup cache instead of re-executing.
  EXPECT_GT(orch.channel().dropped() + orch.channel().duplicated(), 0u);
}

TEST(ChannelDeploy, HeavyDuplicationNeverDoublePlaces) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.control_dup_p = 0.9;
  plan.control_delay_mean_ms = 0.5;
  sim::FaultInjector faults(plan);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  orch.SetControlFaults(&faults);

  std::optional<OrchestratedDeploy> stateful;
  std::optional<OrchestratedDeploy> stateless;
  orch.DeployViaChannel(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"),
                        [&](const OrchestratedDeploy& r) { stateful = r; });
  orch.DeployViaChannel(StatelessRequest("web", 1500),
                        [&](const OrchestratedDeploy& r) { stateless = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(60));

  ASSERT_TRUE(stateful.has_value());
  ASSERT_TRUE(stateless.has_value());
  ASSERT_TRUE(stateful->outcome.accepted) << stateful->outcome.reason;
  ASSERT_TRUE(stateless->outcome.accepted) << stateless->outcome.reason;
  EXPECT_GT(orch.channel().duplicated(), 0u);
  EXPECT_GT(orch.channel().deduped(), 0u);
  // One dedicated guest + one shared VM across the whole fleet, each
  // installed exactly once despite the wire duplicates.
  size_t total_vms = 0;
  for (const std::string& name : orch.fleet().Names()) {
    total_vms += orch.platform(name)->vms().vm_count();
  }
  EXPECT_EQ(total_vms, 2u);
  EXPECT_EQ(orch.ConsolidatedTenantCount(stateless->outcome.platform), 1u);
  ExpectJournalConverged(orch.journal());
}

// --- Crash recovery --------------------------------------------------------------------

// Fleet + journal outlive the orchestrator: destroying it and building a new
// one over the same pair is the simulated controller crash.
class CrashRecovery : public ::testing::Test {
 protected:
  CrashRecovery()
      : fleet_(&clock_, OrchestratorOptions{}.platform_memory_bytes) {}

  sim::EventQueue clock_;
  PlatformFleet fleet_;
  DeployJournal journal_;
};

TEST_F(CrashRecovery, AdoptsLiveTenantsAndFinishesInFlightOnes) {
  std::string live_module;
  std::string inflight_module;
  std::string inflight_platform;
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                      &fleet_, &journal_);
    // Tenant 1 reaches steady state before the crash.
    auto done = orch.Deploy(MeterRequest("m1", "10.10.0.5", "10.10.0.0/24"));
    ASSERT_TRUE(done.outcome.accepted) << done.outcome.reason;
    live_module = done.outcome.module_id;
    clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
    // Tenant 2 is placed but its confirmation chain has not run when the
    // controller dies.
    std::optional<OrchestratedDeploy> placed;
    orch.DeployViaChannel(MeterRequest("m2", "10.20.0.5", "10.20.0.0/24"),
                          [&](const OrchestratedDeploy& r) { placed = r; });
    ASSERT_TRUE(placed.has_value());
    ASSERT_TRUE(placed->outcome.accepted) << placed->outcome.reason;
    inflight_module = placed->outcome.module_id;
    inflight_platform = placed->outcome.platform;
    EXPECT_EQ(journal_.Find(placed->journal_id)->state, JournalState::kPlaced);
  }  // crash

  Orchestrator successor(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                         &fleet_, &journal_);
  EXPECT_EQ(successor.placement_count(), 0u);  // belief died with the crash
  RecoveryReport report = successor.RecoverFromJournal();
  EXPECT_EQ(report.adopted, 1u);    // the live tenant
  EXPECT_EQ(report.completed, 1u);  // the placed-but-unconfirmed one
  EXPECT_EQ(report.killed, 0u);

  // Belief matches reality again: both tenants, no duplicate guests.
  EXPECT_EQ(successor.placement_count(), 2u);
  EXPECT_TRUE(successor.HasPlacement(live_module));
  EXPECT_TRUE(successor.HasPlacement(inflight_module));
  EXPECT_EQ(successor.engine().admission().UsageFor("m1").modules, 1u);
  EXPECT_EQ(successor.engine().admission().UsageFor("m2").modules, 1u);
  size_t total_vms = 0;
  for (const std::string& name : fleet_.Names()) {
    total_vms += fleet_.Get(name)->vms().vm_count();
  }
  EXPECT_EQ(total_vms, 2u);

  // The re-armed confirmation chain finishes the in-flight entry.
  clock_.RunUntil(clock_.now() + sim::FromSeconds(5));
  ExpectJournalConverged(journal_);
  // A kill through the successor proves the adopted belief is actionable:
  // the guest it believes in is the one that actually disappears.
  const auto* placement = successor.FindPlacement(inflight_module);
  ASSERT_NE(placement, nullptr);
  Vm::VmId inflight_vm = placement->second;
  ASSERT_NE(inflight_vm, 0u);
  EXPECT_TRUE(successor.Kill(inflight_module));
  EXPECT_EQ(fleet_.Get(inflight_platform)->vms().Find(inflight_vm), nullptr);
}

TEST_F(CrashRecovery, ResendsUnackedInstallUnderOriginalToken) {
  std::string module_id;
  std::string platform_name = "platform1";
  uint64_t journal_id = 0;
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                      &fleet_, &journal_);
    // The platform is cut off, so the install leaves the controller but is
    // never delivered; the entry is stuck at verified when the crash hits.
    orch.SetPartitioned(platform_name, true);
    ClientRequest request = MeterRequest("m1", "10.10.0.5", "10.10.0.0/24");
    request.pinned_platform = platform_name;
    std::optional<OrchestratedDeploy> result;
    orch.DeployViaChannel(request, [&](const OrchestratedDeploy& r) { result = r; });
    EXPECT_FALSE(result.has_value());  // in flight
    const JournalEntry& entry = journal_.entries().back();
    EXPECT_EQ(entry.state, JournalState::kVerified);
    EXPECT_NE(entry.op_epoch, 0u);
    module_id = entry.module_id;
    journal_id = entry.id;
  }  // crash with the op un-acked

  // The partition heals while the controller is down.
  fleet_.channel().SetPartitioned(platform_name, false);

  Orchestrator successor(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                         &fleet_, &journal_);
  RecoveryReport report = successor.RecoverFromJournal();
  EXPECT_EQ(report.resumed, 1u);
  clock_.RunUntil(clock_.now() + sim::FromSeconds(5));

  // The re-sent install (same token) executed exactly once and the entry
  // walked to steady state.
  EXPECT_EQ(fleet_.Get(platform_name)->vms().vm_count(), 1u);
  EXPECT_TRUE(successor.HasPlacement(module_id));
  EXPECT_EQ(journal_.Find(journal_id)->state, JournalState::kCutover);
  ExpectJournalConverged(journal_);
  // The crashed controller's in-flight continuations (still queued on the
  // clock) were defused with it: draining them must not release the
  // successor's freshly-committed quota share.
  EXPECT_EQ(successor.engine().admission().UsageFor("m1").modules, 1u);
}

// The consolidated branch of the re-send: a stateless tenant whose shared-VM
// rebuild was cut off is merged, under its original token, into the shared
// VM the successor adopted for its neighbour.
TEST_F(CrashRecovery, ResendsUnackedRebuildNextToAdoptedNeighbour) {
  const std::string platform_name = "platform1";
  std::string neighbour_module;
  Ipv4Address neighbour_addr;
  std::string stuck_module;
  uint64_t stuck_id = 0;
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                      &fleet_, &journal_);
    ClientRequest neighbour = StatelessRequest("web", 1500);
    neighbour.pinned_platform = platform_name;
    auto done = orch.Deploy(neighbour);
    ASSERT_TRUE(done.outcome.accepted) << done.outcome.reason;
    ASSERT_TRUE(done.consolidated);
    neighbour_module = done.outcome.module_id;
    neighbour_addr = done.outcome.module_addr;
    clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
    // The rebuild that would merge the second tenant leaves the controller
    // but never arrives; its entry is stuck at verified when the crash hits.
    orch.SetPartitioned(platform_name, true);
    ClientRequest stuck = StatelessRequest("web2", 1600);
    stuck.pinned_platform = platform_name;
    std::optional<OrchestratedDeploy> result;
    orch.DeployViaChannel(stuck, [&](const OrchestratedDeploy& r) { result = r; });
    EXPECT_FALSE(result.has_value());
    const JournalEntry& entry = journal_.entries().back();
    EXPECT_EQ(entry.state, JournalState::kVerified);
    EXPECT_TRUE(entry.consolidated);
    stuck_module = entry.module_id;
    stuck_id = entry.id;
  }  // crash with the rebuild un-acked
  fleet_.channel().SetPartitioned(platform_name, false);

  Orchestrator successor(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                         &fleet_, &journal_);
  RecoveryReport report = successor.RecoverFromJournal();
  EXPECT_EQ(report.adopted, 1u);  // the neighbour
  EXPECT_EQ(report.resumed, 1u);  // the rebuild, re-sent
  clock_.RunUntil(clock_.now() + sim::FromSeconds(5));

  // Both tenants live in one shared VM on the platform.
  EXPECT_TRUE(successor.HasPlacement(neighbour_module));
  EXPECT_TRUE(successor.HasPlacement(stuck_module));
  EXPECT_EQ(successor.ConsolidatedTenantCount(platform_name), 2u);
  platform::InNetPlatform* box = fleet_.Get(platform_name);
  EXPECT_EQ(box->vms().vm_count(), 1u);
  Vm::VmId shared = box->InstalledVmFor(neighbour_addr);
  EXPECT_NE(shared, 0u);
  EXPECT_EQ(box->InstalledVmFor(Ipv4Address::MustParse(journal_.Find(stuck_id)->addr)), shared);
  EXPECT_EQ(journal_.Find(stuck_id)->state, JournalState::kCutover);
  ExpectJournalConverged(journal_);
  EXPECT_EQ(successor.engine().admission().UsageFor("web").modules, 1u);
  EXPECT_EQ(successor.engine().admission().UsageFor("web2").modules, 1u);
}

TEST_F(CrashRecovery, RollsBackIntentAndRePlacesFresh) {
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                      &fleet_, &journal_);
    // Simulate a crash between the WAL intent write and verification.
    journal_.Begin(JournalEntryKind::kDeploy, MeterRequest("m1", "10.10.0.5", "10.10.0.0/24"),
                   clock_.now());
  }
  Orchestrator successor(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                         &fleet_, &journal_);
  RecoveryReport report = successor.RecoverFromJournal();
  EXPECT_EQ(report.rolled_back, 1u);
  EXPECT_EQ(report.resumed, 1u);  // re-placed from the journaled request
  clock_.RunUntil(clock_.now() + sim::FromSeconds(5));
  EXPECT_EQ(successor.placement_count(), 1u);
  ExpectJournalConverged(journal_);
}

TEST_F(CrashRecovery, ReplayWithPartitionedPlatformConvergesOnHeal) {
  std::string live_module;
  std::string placed_module;
  uint64_t placed_id = 0;
  uint64_t stuck_id = 0;
  ClientRequest stuck_request = MeterRequest("m3", "10.30.0.5", "10.30.0.0/24");
  stuck_request.pinned_platform = "platform1";
  {
    Orchestrator orch(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                      &fleet_, &journal_);
    // m1 reaches steady state before anything goes wrong.
    auto done = orch.Deploy(MeterRequest("m1", "10.10.0.5", "10.10.0.0/24"));
    ASSERT_TRUE(done.outcome.accepted) << done.outcome.reason;
    live_module = done.outcome.module_id;
    clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
    // m2 is placed on platform1 but its confirmation chain never runs.
    ClientRequest placed_request = MeterRequest("m2", "10.20.0.5", "10.20.0.0/24");
    placed_request.pinned_platform = "platform1";
    std::optional<OrchestratedDeploy> placed;
    orch.DeployViaChannel(placed_request, [&](const OrchestratedDeploy& r) { placed = r; });
    ASSERT_TRUE(placed.has_value());
    ASSERT_TRUE(placed->outcome.accepted) << placed->outcome.reason;
    placed_module = placed->outcome.module_id;
    placed_id = placed->journal_id;
    EXPECT_EQ(journal_.Find(placed_id)->state, JournalState::kPlaced);
    // platform1 partitions; m3's install leaves the controller but is never
    // delivered — its entry is stuck at verified when the crash hits.
    orch.SetPartitioned("platform1", true);
    orch.DeployViaChannel(stuck_request, [](const OrchestratedDeploy&) {});
    stuck_id = journal_.entries().back().id;
    EXPECT_EQ(journal_.Find(stuck_id)->state, JournalState::kVerified);
  }  // crash — the partition persists in the fleet's channel

  // Replay runs with the partition still open: reachable state converges
  // immediately, the partitioned remainder finishes at heal.
  Orchestrator successor(topology::Network::MakeFigure3(), &clock_, OrchestratorOptions{},
                         &fleet_, &journal_);
  RecoveryReport report = successor.RecoverFromJournal();
  EXPECT_EQ(report.adopted, 1u);    // m1
  EXPECT_EQ(report.completed, 1u);  // m2: the guest exists, belief rebuilt
  EXPECT_EQ(report.resumed, 1u);    // m3: re-sent under its original token
  EXPECT_EQ(report.killed, 0u);
  EXPECT_EQ(successor.placement_count(), 2u);

  // Against the open partition, m3's re-send retries and gives up (entry
  // rolled back, quota clean); m2's confirm chain parks at placed.
  clock_.RunUntil(clock_.now() + sim::FromSeconds(60));
  EXPECT_EQ(journal_.Find(stuck_id)->state, JournalState::kRolledBack);
  EXPECT_EQ(journal_.Find(placed_id)->state, JournalState::kPlaced);
  EXPECT_EQ(successor.engine().admission().UsageFor("m3").modules, 0u);
  EXPECT_EQ(successor.engine().admission().UsageFor("m2").modules, 1u);

  // Heal the link, then reconcile: belief squares with actuality, the parked
  // confirm chain re-arms and walks m2 to steady state, and the uninstall
  // deferred for m3's unacked re-send (which the platform may have executed)
  // is flushed.
  successor.channel().SetPartitioned("platform1", false);
  ReconcileReport heal = successor.ReconcilePlatform("platform1");
  EXPECT_EQ(heal.lost, 0u);
  EXPECT_GE(heal.rearmed, 1u);
  EXPECT_EQ(heal.cleanups, 1u);
  clock_.RunUntil(clock_.now() + sim::FromSeconds(5));
  EXPECT_EQ(journal_.Find(placed_id)->state, JournalState::kCutover);
  EXPECT_TRUE(successor.HasPlacement(placed_module));

  // The rolled-back tenant can be re-deployed now that the platform is back.
  auto redo = successor.Deploy(stuck_request);
  EXPECT_TRUE(redo.outcome.accepted) << redo.outcome.reason;
  clock_.RunUntil(clock_.now() + sim::FromSeconds(5));
  ExpectJournalConverged(journal_);
}

// --- Partitions ------------------------------------------------------------------------

TEST(Partition, DegradedPlatformKeepsServingAndHealReconciles) {
  sim::EventQueue clock;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  auto deployed = orch.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
  ASSERT_TRUE(deployed.outcome.accepted) << deployed.outcome.reason;
  clock.RunUntil(clock.now() + sim::FromSeconds(1));  // guest boots
  const std::string name = deployed.outcome.platform;

  orch.SetPartitioned(name, true);

  // Data plane unaffected: the watchdog and demux are local to the platform.
  int egress = 0;
  orch.platform(name)->SetEgressHandler([&](Packet&) { ++egress; });
  Packet packet = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                  deployed.outcome.module_addr, 4000, 53, 64);
  orch.platform(name)->HandlePacket(packet);
  EXPECT_EQ(egress, 1);

  // Control plane cut: a deploy pinned to the partitioned platform retries,
  // gives up, and rolls back without stranding its quota reservation.
  ClientRequest blocked = MeterRequest("blocked", "10.20.0.5", "10.20.0.0/24");
  blocked.pinned_platform = name;
  std::optional<OrchestratedDeploy> result;
  orch.DeployViaChannel(blocked, [&](const OrchestratedDeploy& r) { result = r; });
  clock.RunUntil(clock.now() + sim::FromSeconds(60));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->outcome.accepted);
  EXPECT_NE(result->outcome.reason.find("gave up"), std::string::npos);
  EXPECT_EQ(orch.engine().admission().UsageFor("blocked").modules, 0u);
  EXPECT_GT(orch.channel().partition_dropped(), 0u);
  ExpectJournalConverged(orch.journal());

  // Heal: belief and actuality reconcile — the surviving tenant checks out.
  orch.SetPartitioned(name, false);
  ReconcileReport heal = orch.ReconcilePlatform(name);
  EXPECT_EQ(heal.checked, 1u);
  EXPECT_EQ(heal.healthy, 1u);
  EXPECT_EQ(heal.lost, 0u);
  EXPECT_TRUE(orch.HasPlacement(deployed.outcome.module_id));
  EXPECT_EQ(orch.platform(name)->vms().vm_count(), 1u);
}

// A partition that eats a migration's suspend ack makes the migration give
// up while the source guest is frozen and marked migrating-out. The heal
// must clear the mark, or traffic parks behind the guest and never resumes
// it.
TEST(Partition, SuspendGiveUpReleasesSourceGuestOnHeal) {
  sim::EventQueue clock;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  auto deployed = orch.Deploy(MeterRequest("meter", "10.10.0.5", "10.10.0.0/24"));
  ASSERT_TRUE(deployed.outcome.accepted) << deployed.outcome.reason;
  ASSERT_NE(deployed.vm_id, 0u);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));  // guest boots
  const std::string source = deployed.outcome.platform;
  const std::string target = source == "platform2" ? "platform1" : "platform2";

  sim::FaultPlan plan;
  plan.seed = 3;
  plan.control_delay_mean_ms = 1.0;
  sim::FaultInjector faults(plan);
  orch.SetControlFaults(&faults);
  std::optional<MigrationReport> report;
  ASSERT_TRUE(orch.MigrateTenant(deployed.outcome.module_id, target,
                                 [&](const MigrationReport& r) { report = r; })
                  .started);
  // The suspend lands and the guest starts freezing; its ack will find the
  // platform cut off.
  clock.RunUntil(clock.now() + 10 * sim::kMillisecond);
  Vm* guest = orch.platform(source)->vms().Find(deployed.vm_id);
  ASSERT_NE(guest, nullptr);
  ASSERT_EQ(guest->state(), VmState::kSuspending);
  orch.SetPartitioned(source, true);
  clock.RunUntil(clock.now() + sim::FromSeconds(60));
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->ok);
  EXPECT_NE(report->reason.find("gave up"), std::string::npos);
  EXPECT_EQ(guest->state(), VmState::kSuspended);

  orch.SetPartitioned(source, false);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));
  int egress = 0;
  orch.platform(source)->SetEgressHandler([&](Packet&) { ++egress; });
  Packet packet = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                  deployed.outcome.module_addr, 4000, 53, 64);
  orch.platform(source)->HandlePacket(packet);
  clock.RunUntil(clock.now() + sim::FromSeconds(1));
  EXPECT_EQ(guest->state(), VmState::kRunning);
  EXPECT_EQ(egress, 1);
  EXPECT_TRUE(orch.HasPlacement(deployed.outcome.module_id));
}

// --- Determinism -----------------------------------------------------------------------

// Same seed, same scenario: the journal (every transition, every note, every
// simulated timestamp) must be byte-identical across two fresh runs.
std::string RunSeededChaosScenario(uint64_t seed) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.control_loss_p = 0.3;
  plan.control_dup_p = 0.2;
  plan.control_delay_mean_ms = 2.0;
  sim::FaultInjector faults(plan);
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  orch.SetControlFaults(&faults);
  orch.DeployViaChannel(MeterRequest("m1", "10.10.0.5", "10.10.0.0/24"));
  orch.DeployViaChannel(StatelessRequest("web", 1500));
  clock.RunUntil(clock.now() + sim::FromSeconds(30));
  orch.SetPartitioned("platform1", true);
  orch.DeployViaChannel(StatelessRequest("web2", 1501));
  clock.RunUntil(clock.now() + sim::FromSeconds(30));
  orch.SetPartitioned("platform1", false);
  clock.RunUntil(clock.now() + sim::FromSeconds(30));
  return orch.journal().ToJson().ToString(2) + "\n" +
         std::to_string(orch.channel().sent()) + "/" +
         std::to_string(orch.channel().dropped()) + "/" +
         std::to_string(orch.channel().duplicated());
}

TEST(Determinism, SameSeedSameJournalByteForByte) {
  std::string first = RunSeededChaosScenario(1234);
  std::string second = RunSeededChaosScenario(1234);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, RunSeededChaosScenario(99));  // the seed actually matters
}

// The journal's indexed lookups (Find by offset from the front id, the
// list of non-terminal ids, the in-flight counter behind the gauge) agree
// with a scan of every entry after each of a few thousand random calls,
// including transitions out of a terminal state.
TEST(Journal, IndexedLookupsMatchAFullScanAfterEveryCall) {
  const std::vector<std::string> modules = {"", "m0", "m1", "m2", "m3", "m4", "m5"};
  const JournalState states[] = {
      JournalState::kIntent,     JournalState::kVerified, JournalState::kPlaced,
      JournalState::kBooted,     JournalState::kCutover,  JournalState::kRolledBack,
      JournalState::kSuperseded, JournalState::kKilled};
  const JournalState terminals[] = {JournalState::kRolledBack, JournalState::kSuperseded,
                                    JournalState::kKilled};
  DeployJournal journal;
  obs::Gauge* gauge = obs::Registry().GetGauge("innet_journal_inflight");
  std::mt19937 rng(20);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };

  for (int call = 0; call < 3000; ++call) {
    uint64_t newest = journal.entries().empty() ? 0 : journal.entries().back().id;
    switch (pick(4)) {
      case 0: {
        uint64_t id = journal.Begin(JournalEntryKind::kDeploy, ClientRequest{}, call);
        journal.Find(id)->module_id = modules[pick(modules.size())];
        break;
      }
      case 1:
      case 2:
        if (newest != 0) {
          journal.Advance(1 + pick(newest), states[pick(std::size(states))], call);
        }
        break;
      default:
        journal.MarkModuleTerminal(modules[pick(modules.size())],
                                   terminals[pick(std::size(terminals))], call, "scan");
        break;
    }

    size_t in_flight = 0;
    for (const JournalEntry& entry : journal.entries()) {
      in_flight += DeployJournal::IsInFlight(entry.state) ? 1 : 0;
      ASSERT_EQ(journal.Find(entry.id), &entry) << "call " << call;
    }
    ASSERT_EQ(journal.Find(0), nullptr);
    ASSERT_EQ(journal.Find(journal.entries().size() + 1), nullptr);
    ASSERT_EQ(journal.InFlightCount(), in_flight) << "call " << call;
    ASSERT_EQ(gauge->value(), static_cast<double>(in_flight)) << "call " << call;
    for (const std::string& module : modules) {
      JournalEntry* live = nullptr;
      for (const JournalEntry& entry : journal.entries()) {
        if (entry.module_id == module && !DeployJournal::IsTerminal(entry.state)) {
          live = const_cast<JournalEntry*>(&entry);
        }
      }
      ASSERT_EQ(journal.FindLiveByModule(module), live) << "call " << call << " " << module;
    }
  }
}

}  // namespace
}  // namespace innet::controller
