// Tests for the per-tenant SLO health monitor: clause thresholds, hysteresis,
// determinism, and the control-loop consumers (watchdog restart ordering,
// health-ordered rebalance draining).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/controller/orchestrator.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/topology/network.h"

namespace innet::obs {
namespace {

TEST(Health, DisabledFeedsAreNoOps) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  monitor.CountRestart("tenant");
  monitor.ObserveBootLatency("tenant", 1000.0);
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.tenant_count(), 0u);
  EXPECT_EQ(monitor.CurrentState("tenant"), HealthState::kOk);
  EXPECT_EQ(registry.instrument_count(), 0u);
}

TEST(Health, RestartClauseCrossesBothThresholds) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  monitor.Enable();

  monitor.CountRestart("flaky");
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("flaky"), HealthState::kDegraded);  // >= 1
  EXPECT_EQ(monitor.Severity("flaky"), 1);

  monitor.CountRestart("flaky");
  monitor.CountRestart("flaky");
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("flaky"), HealthState::kViolated);  // >= 3
  EXPECT_EQ(monitor.Severity("flaky"), 2);

  // A tenant the monitor has never seen reads as ok.
  EXPECT_EQ(monitor.CurrentState("stranger"), HealthState::kOk);
  EXPECT_EQ(monitor.tenant_count(), 1u);
}

TEST(Health, BootLatencyClauseUsesTheP99Quantile) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  monitor.Enable();

  // 150 ms lands in the (128, 256] bucket: p99 = 256 ms — past the 100 ms
  // degraded threshold, inside the 500 ms violated one.
  monitor.ObserveBootLatency("slow", 150.0);
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("slow"), HealthState::kDegraded);

  // Pushing the p99 past 500 ms violates.
  for (int i = 0; i < 200; ++i) {
    monitor.ObserveBootLatency("slow", 600.0);
  }
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("slow"), HealthState::kViolated);
}

TEST(Health, DropRateClauseAndHysteresisOnRecovery) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  monitor.Enable();

  // 1 drop in 10 offered packets: rate 0.1 > 0.05 -> violated immediately.
  monitor.CountBuffered("bursty", 9);
  monitor.CountDrop("bursty");
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("bursty"), HealthState::kViolated);

  // Dilute the rate below the degraded threshold: the raw state is ok, but
  // the monitor holds the old state for recover_evals - 1 more passes.
  monitor.CountBuffered("bursty", 100000);
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("bursty"), HealthState::kViolated);
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("bursty"), HealthState::kViolated);
  monitor.EvaluateAll();  // third consecutive clean pass: step down
  EXPECT_EQ(monitor.CurrentState("bursty"), HealthState::kOk);

  // Upward transitions stay immediate after a recovery.
  monitor.CountDrop("bursty", 100000);
  monitor.EvaluateAll();
  EXPECT_EQ(monitor.CurrentState("bursty"), HealthState::kViolated);
}

TEST(Health, ReportIsSortedAndByteStable) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  monitor.Enable();
  monitor.CountRestart("zeta");
  monitor.ObserveBootLatency("alpha", 10.0);
  monitor.EvaluateAll();

  json::Value report = monitor.ToJson();
  const json::Value* tenants = report.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->size(), 2u);
  EXPECT_EQ(tenants->at(0).Find("tenant")->string_value(), "alpha");
  EXPECT_EQ(tenants->at(0).Find("state")->string_value(), "ok");
  EXPECT_EQ(tenants->at(1).Find("tenant")->string_value(), "zeta");
  EXPECT_EQ(tenants->at(1).Find("state")->string_value(), "degraded");
  EXPECT_EQ(report.ToString(2), monitor.ToJson().ToString(2));

  // The state gauge mirrors the evaluation (labels live in the registry).
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("innet_tenant_health_state", {{"tenant", "zeta"}})->value(), 1.0);
}

TEST(Health, TransitionsEmitTraceEvents) {
  MetricsRegistry registry;
  HealthMonitor monitor(&registry);
  monitor.Enable();
  Tracer().Clear();
  Tracer().Enable();

  monitor.CountRestart("watched");
  monitor.EvaluateAll();
  monitor.EvaluateAll();  // unchanged state: no second event

  std::vector<TraceEvent> events = Tracer().events();
  Tracer().Clear();
  Tracer().Enable(false);

  size_t transitions = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kHealthTransition) {
      ++transitions;
      EXPECT_EQ(event.target, "tenant:watched");
      EXPECT_EQ(event.detail, "ok->degraded");
      EXPECT_EQ(event.value, 1);
    }
  }
  EXPECT_EQ(transitions, 1u);
}

// --- Control-loop consumers ----------------------------------------------------
// These use the global monitor/tracer (the watchdog and orchestrator read
// them), so they clean both up before finishing.

controller::ClientRequest MeterRequest(const std::string& client_id) {
  controller::ClientRequest request;
  request.client_id = client_id;
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> FlowMeter() -> IPRewriter(pattern - - 10.10.0.5 - 0 0) "
      "-> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

struct GlobalObsCleanup {
  ~GlobalObsCleanup() {
    Health().Clear();
    Health().Enable(false);
    Tracer().Clear();
    Tracer().Enable(false);
    Tracer().SetTimeSource(nullptr);
  }
};

TEST(HealthControl, WatchdogRestartsTheViolatedTenantsGuestFirst) {
  GlobalObsCleanup cleanup;
  sim::EventQueue clock;
  Health().Clear();
  Health().Enable();
  Tracer().Clear();
  Tracer().Enable();
  Tracer().SetTimeSource([&clock] { return clock.now(); });

  controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  auto first = orch.Deploy(MeterRequest("healthy"));
  auto second = orch.Deploy(MeterRequest("victim"));
  ASSERT_TRUE(first.outcome.accepted) << first.outcome.reason;
  ASSERT_TRUE(second.outcome.accepted) << second.outcome.reason;
  ASSERT_EQ(first.outcome.platform, second.outcome.platform);
  ASSERT_LT(first.vm_id, second.vm_id);  // default sweep order would pick it
  platform::InNetPlatform* box = orch.platform(first.outcome.platform);
  box->EnableWatchdog();
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  // Make "victim" violated without touching its guest: direct SLO feeds.
  Health().CountRestart("victim");
  Health().CountRestart("victim");
  Health().CountRestart("victim");
  Health().EvaluateAll();
  ASSERT_EQ(Health().CurrentState("victim"), HealthState::kViolated);

  // Both guests crash in the same sweep window.
  const sim::TimeNs mark = clock.now();
  ASSERT_TRUE(box->vms().Crash(first.vm_id));
  ASSERT_TRUE(box->vms().Crash(second.vm_id));
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  std::vector<platform::Vm::VmId> restart_order;
  for (const TraceEvent& event : Tracer().events()) {
    if (event.kind == EventKind::kVmRestart && event.time_ns >= mark) {
      if (event.target == "vm:" + std::to_string(first.vm_id)) {
        restart_order.push_back(first.vm_id);
      } else if (event.target == "vm:" + std::to_string(second.vm_id)) {
        restart_order.push_back(second.vm_id);
      }
    }
  }
  ASSERT_EQ(restart_order.size(), 2u);
  EXPECT_EQ(restart_order[0], second.vm_id);  // violated tenant recovered first
  EXPECT_EQ(restart_order[1], first.vm_id);
}

TEST(HealthControl, RebalanceDrainsTheViolatedTenantFirst) {
  GlobalObsCleanup cleanup;
  sim::EventQueue clock;
  Health().Clear();
  Health().Enable();

  controller::OrchestratorOptions options;
  options.platform_memory_bytes = 32ull << 20;  // 4 ClickOS guests per box
  controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);
  // First-fit packs all four stateful tenants onto platform1 -> 100% full.
  std::vector<std::string> module_ids;
  for (int i = 0; i < 4; ++i) {
    auto result = orch.Deploy(MeterRequest("tenant" + std::to_string(i)));
    ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
    ASSERT_EQ(result.outcome.platform, "platform1");
    module_ids.push_back(result.outcome.module_id);
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(1));

  // tenant2 is violated; without health the drain would start at the lowest
  // module id (tenant0's).
  Health().CountRestart("tenant2");
  Health().CountRestart("tenant2");
  Health().CountRestart("tenant2");

  controller::RebalanceReport report = orch.Rebalance(/*drain_above_utilization=*/0.7);
  clock.RunUntil(clock.now() + sim::FromSeconds(2));
  ASSERT_EQ(report.hot_platforms, 1u);
  ASSERT_EQ(report.moves.size(), 2u);
  EXPECT_EQ(report.moves[0].first, module_ids[2]);  // violated drains first
  EXPECT_EQ(report.moves[1].first, module_ids[0]);  // then lowest module id
  EXPECT_EQ(orch.placement_count(), 4u);            // nobody was lost
}

}  // namespace
}  // namespace innet::obs
