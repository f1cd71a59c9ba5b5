// Tests for the observability layer: registry determinism, histogram
// bucketing, tracer bounds, JSON round-trips, and the sim::Samples cache.
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/controller/orchestrator.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scheduler/engine.h"
#include "src/sim/stats.h"
#include "src/topology/network.h"

namespace innet::obs {
namespace {

TEST(Json, RoundTripsThroughParser) {
  json::Value doc = json::Value::Object();
  doc.Set("name", "innet_vm_boots_total");
  doc.Set("count", uint64_t{42});
  doc.Set("mean_ms", 87.5);
  doc.Set("truncated", false);
  json::Value items = json::Value::Array();
  items.Push(1).Push(2.5).Push("three");
  doc.Set("items", std::move(items));

  std::string text = doc.ToString(2);
  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::Value::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("name")->string_value(), "innet_vm_boots_total");
  EXPECT_EQ(parsed.Find("count")->int_number(), 42);
  EXPECT_DOUBLE_EQ(parsed.Find("mean_ms")->number(), 87.5);
  EXPECT_FALSE(parsed.Find("truncated")->bool_value());
  ASSERT_EQ(parsed.Find("items")->size(), 3u);
  // The round-trip is byte-stable: re-serializing the parse reproduces it.
  EXPECT_EQ(parsed.ToString(2), text);
}

TEST(Json, ParserRejectsMalformedInput) {
  json::Value out;
  std::string error;
  EXPECT_FALSE(json::Value::Parse("{\"a\": 1,}", &out, &error));
  EXPECT_FALSE(json::Value::Parse("{\"a\": 1} trailing", &out, &error));
  EXPECT_FALSE(json::Value::Parse("{'a': 1}", &out, &error));
  EXPECT_FALSE(json::Value::Parse("", &out, &error));
}

// The parser recurses once per nesting level; without the depth guard a
// hostile dump ("[[[[...") walks straight off the stack. The guard must
// reject past the limit without disturbing parses under it.
TEST(Json, DepthGuardRejectsHostileNesting) {
  auto nested_array = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  auto nested_object = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += "{\"a\":";
    }
    text += "1";
    text.append(depth, '}');
    return text;
  };

  json::Value out;
  std::string error;
  // At the limit (256): fine. One past: rejected with the guard's message,
  // for both container kinds.
  EXPECT_TRUE(json::Value::Parse(nested_array(256), &out, &error)) << error;
  EXPECT_FALSE(json::Value::Parse(nested_array(257), &out, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_TRUE(json::Value::Parse(nested_object(256), &out, &error)) << error;
  EXPECT_FALSE(json::Value::Parse(nested_object(257), &out, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;

  // Depth counts nesting, not total containers: many siblings at one level
  // must never trip the guard.
  std::string siblings = "[";
  for (int i = 0; i < 2000; ++i) {
    siblings += "[],";
  }
  siblings += "[]]";
  EXPECT_TRUE(json::Value::Parse(siblings, &out, &error)) << error;
}

// Fuzz-style regression: seeded LCG drives random nested documents near the
// limit; the parser must accept/reject purely on depth and never crash.
TEST(Json, DepthGuardFuzzNearTheLimit) {
  uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int trial = 0; trial < 64; ++trial) {
    int depth = 250 + static_cast<int>(next() % 14);  // 250..263
    std::string text;
    std::string closers;
    for (int level = 0; level < depth; ++level) {
      if (next() % 2 == 0) {
        text += "[";
        closers.insert(0, "]");
      } else {
        text += "{\"k\":";
        closers.insert(0, "}");
      }
    }
    text += "0";
    text += closers;
    json::Value out;
    std::string error;
    bool ok = json::Value::Parse(text, &out, &error);
    EXPECT_EQ(ok, depth <= 256) << "depth " << depth << ": " << error;
  }
}

TEST(Metrics, DumpIsDeterministicAcrossInsertionOrders) {
  // Two registries fed the same instruments in different orders (and with
  // label pairs given in different orders) must dump identical bytes.
  MetricsRegistry a;
  a.GetCounter("zeta_total", {{"kind", "x"}})->Increment(3);
  a.GetGauge("alpha")->Set(1.5);
  a.GetCounter("zeta_total", {{"b", "2"}, {"a", "1"}})->Increment();

  MetricsRegistry b;
  b.GetCounter("zeta_total", {{"a", "1"}, {"b", "2"}})->Increment();
  b.GetCounter("zeta_total", {{"kind", "x"}})->Increment(3);
  b.GetGauge("alpha")->Set(1.5);

  std::ostringstream dump_a;
  std::ostringstream dump_b;
  a.DumpText(dump_a);
  b.DumpText(dump_b);
  EXPECT_EQ(dump_a.str(), dump_b.str());
  EXPECT_EQ(a.ToJson().ToString(2), b.ToJson().ToString(2));
}

TEST(Metrics, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("x_total");
  first->Increment(5);
  Counter* again = registry.GetCounter("x_total");
  EXPECT_EQ(first, again);
  EXPECT_EQ(again->value(), 5u);
  // Distinct labels get a distinct instrument.
  EXPECT_NE(registry.GetCounter("x_total", {{"k", "v"}}), first);

  registry.ResetValues();
  EXPECT_EQ(first->value(), 0u);  // zeroed, but the pointer stays valid
  first->Increment();
  EXPECT_EQ(registry.GetCounter("x_total")->value(), 1u);
}

TEST(Metrics, HistogramBucketsUseLowerBoundSemantics) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat_ms", {}, {1.0, 2.0, 4.0});
  h->Observe(0.5);   // <= 1.0
  h->Observe(1.0);   // le-semantics: exactly on the bound lands in it
  h->Observe(3.0);   // <= 4.0
  h->Observe(100.0); // +inf overflow
  ASSERT_EQ(h->buckets().size(), 4u);
  EXPECT_EQ(h->buckets()[0], 2u);
  EXPECT_EQ(h->buckets()[1], 0u);
  EXPECT_EQ(h->buckets()[2], 1u);
  EXPECT_EQ(h->buckets()[3], 1u);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 104.5);
}

TEST(Metrics, BucketLadders) {
  EXPECT_EQ(ExponentialBuckets(1.0, 2.0, 4), (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(LinearBuckets(10.0, 5.0, 3), (std::vector<double>{10, 15, 20}));
}

TEST(Metrics, JsonDumpParsesAndCarriesValues) {
  MetricsRegistry registry;
  registry.GetCounter("pkts_total", {{"element", "f0"}})->Increment(7);
  registry.GetHistogram("boot_ms", {}, {10.0, 100.0})->Observe(42.0);

  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::Value::Parse(registry.ToJson().ToString(2), &parsed, &error)) << error;
  const json::Value* metrics = parsed.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->size(), 2u);
  // Sorted by name: boot_ms first.
  EXPECT_EQ(metrics->at(0).Find("name")->string_value(), "boot_ms");
  EXPECT_EQ(metrics->at(0).Find("type")->string_value(), "histogram");
  EXPECT_EQ(metrics->at(0).Find("count")->int_number(), 1);
  EXPECT_EQ(metrics->at(1).Find("name")->string_value(), "pkts_total");
  EXPECT_EQ(metrics->at(1).Find("value")->int_number(), 7);
  EXPECT_EQ(metrics->at(1).Find("labels")->Find("element")->string_value(), "f0");
}

TEST(Tracer, DisabledRecordIsANoOpAndCapacityBounds) {
  EventTracer tracer;
  tracer.Record(1, EventKind::kVmCrash, "vm:1");
  EXPECT_TRUE(tracer.events().empty());  // disabled by default

  tracer.Enable();
  tracer.set_capacity(2);
  tracer.Record(1, EventKind::kVmBootStart, "vm:1");
  tracer.Record(2, EventKind::kVmBootReady, "vm:1", "", 1000);
  tracer.Record(3, EventKind::kVmCrash, "vm:1");  // over capacity: dropped
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);

  json::Value parsed;
  std::string error;
  ASSERT_TRUE(json::Value::Parse(tracer.ToJson().ToString(2), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("dropped")->int_number(), 1);
  ASSERT_EQ(parsed.Find("events")->size(), 2u);
  EXPECT_EQ(parsed.Find("events")->at(0).Find("kind")->string_value(), "vm_boot_start");
  EXPECT_EQ(parsed.Find("events")->at(1).Find("value")->int_number(), 1000);

  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RecordNowUsesTimeSource) {
  EventTracer tracer;
  tracer.Enable();
  uint64_t now = 7;
  tracer.SetTimeSource([&now] { return now; });
  tracer.RecordNow(EventKind::kVerifyStart, "controller");
  now = 9;
  tracer.RecordNow(EventKind::kVerifyFinish, "controller", "accepted", 2);
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].time_ns, 7u);
  EXPECT_EQ(tracer.events()[1].time_ns, 9u);
}

// A Record with std::string arguments renders exactly the text it did when
// events owned std::string copies.
TEST(Tracer, StringRecordsRenderUnchangedJsonAndPerfettoText) {
  EventTracer tracer;
  tracer.Enable();
  std::string target = "client:a";
  std::string detail = "admitted";
  {
    SpanScope deploy(tracer, 1000, EventKind::kDeployRequest, target);
    tracer.Record(2000, EventKind::kAdmission, target, detail, 3);
    tracer.Record(2500, EventKind::kVmBootStart, "vm:" + std::to_string(7));
  }
  EXPECT_EQ(tracer.ToJson().ToString(),
            R"({"dropped":0,"events":[)"
            R"({"t_ns":1000,"kind":"deploy_request","target":"client:a","value":0,"span":1,)"
            R"("parent":0},)"
            R"({"t_ns":2000,"kind":"admission_decision","target":"client:a","detail":"admitted",)"
            R"("value":3,"span":2,"parent":1},)"
            R"({"t_ns":2500,"kind":"vm_boot_start","target":"vm:7","value":0,"span":3,"parent":1},)"
            R"({"t_ns":1000,"kind":"span_end","target":"client:a","value":0,"span":4,)"
            R"("parent":1}]})");
  EXPECT_EQ(tracer.ToPerfettoJson().ToString(),
            R"({"displayTimeUnit":"ms","traceEvents":[)"
            R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"client:a"}},)"
            R"({"name":"deploy_request","cat":"innet","pid":1,"tid":1,"ts":1,"ph":"X","dur":0,)"
            R"("args":{"span":1,"parent":0,"value":0}},)"
            R"({"name":"admission_decision","cat":"innet","pid":1,"tid":1,"ts":2,"ph":"i","s":"t",)"
            R"("args":{"span":2,"parent":1,"detail":"admitted","value":3}},)"
            R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"vm:7"}},)"
            R"({"name":"vm_boot_start","cat":"innet","pid":1,"tid":2,"ts":2.5,"ph":"i","s":"t",)"
            R"("args":{"span":3,"parent":1,"value":0}}]})");
}

TEST(EventText, EmptyTextIsNullAndEqualsTheEmptyString) {
  const EventText texts[] = {EventText(), EventText(std::string()), EventText("")};
  for (const EventText& text : texts) {
    EXPECT_TRUE(text.empty());
    EXPECT_EQ(text.str(), "");
    EXPECT_TRUE(text == "");
    EXPECT_FALSE(text == "vm:1");
  }
}

TEST(EventText, ComparesWithStringLikesAndStreams) {
  EventText text(std::string("vm:3"));
  EXPECT_FALSE(text.empty());
  EXPECT_TRUE(text == "vm:3");
  EXPECT_TRUE(text == std::string("vm:3"));
  EXPECT_TRUE(text == std::string_view("vm:3"));
  EXPECT_TRUE(text != "vm:30");
  EXPECT_TRUE(text != "vm:");
  std::ostringstream out;
  out << text << '|' << EventText();
  EXPECT_EQ(out.str(), "vm:3|");
}

TEST(EventText, CopiesAndRecordsShareOneString) {
  EventText text("vm:12/packet:123456");
  EventText copy = text;
  EXPECT_EQ(&copy.str(), &text.str());

  EventTracer tracer;
  tracer.Enable();
  tracer.Record(1, EventKind::kPacketIngress, text);
  tracer.Record(2, EventKind::kPacketEgress, text, copy);
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(&tracer.events()[0].target.str(), &text.str());
  EXPECT_EQ(&tracer.events()[1].target.str(), &text.str());
  EXPECT_EQ(&tracer.events()[1].detail.str(), &text.str());

  FlightRecorder recorder;
  recorder.Record(3, EventKind::kPacketIngress, text);
  ASSERT_EQ(recorder.RecentEvents().size(), 1u);
  EXPECT_EQ(&recorder.RecentEvents()[0].target.str(), &text.str());
}

// --- Scheduler instruments ------------------------------------------------------------
// The registry is process-global, so these check deltas, never absolutes.

TEST(SchedulerMetrics, AdmissionCountersTrackDecisions) {
  Counter* accepted =
      Registry().GetCounter("innet_scheduler_admission_total", {{"outcome", "accepted"}});
  Counter* rejected =
      Registry().GetCounter("innet_scheduler_admission_total", {{"outcome", "rejected"}});
  uint64_t accepted_before = accepted->value();
  uint64_t rejected_before = rejected->value();

  scheduler::PlacementEngine engine(
      [](const std::string&, scheduler::PlatformResources* out) {
        out->memory_total = 100;
        out->memory_used = 0;
        return true;
      });
  engine.ledger().AddPlatform("box");
  engine.admission().SetQuota("capped", scheduler::TenantQuota{.max_modules = 1});

  scheduler::PlacementRequest request;
  request.memory_bytes = 10;
  EXPECT_TRUE(engine.Decide("capped", request).admitted);
  engine.CommitPlacement("capped", 10);
  EXPECT_FALSE(engine.Decide("capped", request).admitted);  // quota
  request.memory_bytes = 1000;
  EXPECT_FALSE(engine.Decide("other", request).admitted);  // no headroom

  EXPECT_EQ(accepted->value() - accepted_before, 1u);
  EXPECT_EQ(rejected->value() - rejected_before, 2u);
}

TEST(SchedulerMetrics, HeadroomGaugeTracksLedgerState) {
  uint64_t used = 40;
  bool known = true;
  scheduler::PlacementEngine engine(
      [&](const std::string&, scheduler::PlatformResources* out) {
        if (!known) {
          return false;
        }
        out->memory_total = 100;
        out->memory_used = used;
        return true;
      });
  // Unique platform name: gauges are keyed by label and the registry is
  // shared across tests.
  const std::string name = "obs-test-headroom-box";
  engine.ledger().AddPlatform(name);
  Gauge* gauge =
      Registry().GetGauge("innet_scheduler_platform_headroom_bytes", {{"platform", name}});

  engine.ledger().ExportHeadroomGauges();
  EXPECT_DOUBLE_EQ(gauge->value(), 60.0);

  used = 70;  // data-plane change shows up on the next export (live probe)
  engine.CommitPlacement("tenant", 30);
  EXPECT_DOUBLE_EQ(gauge->value(), 30.0);

  engine.ledger().SetAvailable(name, false);  // drained: no headroom offered
  engine.ledger().ExportHeadroomGauges();
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
}

TEST(SchedulerMetrics, MigrationCountersTrackOutcomes) {
  Counter* started =
      Registry().GetCounter("innet_scheduler_migrations_total", {{"event", "started"}});
  Counter* completed =
      Registry().GetCounter("innet_scheduler_migrations_total", {{"event", "completed"}});
  Counter* aborted =
      Registry().GetCounter("innet_scheduler_migrations_total", {{"event", "aborted"}});
  uint64_t started_before = started->value();
  uint64_t completed_before = completed->value();
  uint64_t aborted_before = aborted->value();

  sim::EventQueue clock;
  controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock);

  // A stateless tenant migrates make-before-break: started + completed.
  controller::ClientRequest request;
  request.client_id = "web";
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  auto stateless = orch.Deploy(request);
  ASSERT_TRUE(stateless.outcome.accepted) << stateless.outcome.reason;
  const std::string target = stateless.outcome.platform == "platform2" ? "platform1" : "platform2";
  ASSERT_TRUE(orch.MigrateTenant(stateless.outcome.module_id, target).started);
  EXPECT_EQ(started->value() - started_before, 1u);
  EXPECT_EQ(completed->value() - completed_before, 1u);

  // The Figure 4 batcher only verifies on platform3: migrating it away
  // starts, then aborts at target re-verification.
  controller::ClientRequest batcher = request;
  batcher.client_id = "mobile1";
  batcher.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> TimedUnqueue(120,100) -> ToNetfront();";
  batcher.requirements =
      "reach from internet udp -> client dst port 1500 const proto && dst port && payload";
  auto stateful = orch.Deploy(batcher);
  ASSERT_TRUE(stateful.outcome.accepted) << stateful.outcome.reason;
  ASSERT_EQ(stateful.outcome.platform, "platform3");
  clock.RunUntil(clock.now() + sim::FromSeconds(1));  // guest boots
  ASSERT_TRUE(orch.MigrateTenant(stateful.outcome.module_id, "platform1").started);
  clock.RunUntil(clock.now() + sim::FromSeconds(2));  // suspend lands, verify fails
  EXPECT_EQ(started->value() - started_before, 2u);
  EXPECT_EQ(completed->value() - completed_before, 1u);
  EXPECT_EQ(aborted->value() - aborted_before, 1u);
}

TEST(Metrics, QuantileInterpolatesWithinTheTargetBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("q_ms", {}, {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) {
    h->Observe(5.0);   // bucket [0, 10]
  }
  for (int i = 0; i < 10; ++i) {
    h->Observe(15.0);  // bucket (10, 20]
  }
  // p50: rank 10 of 20 is the last observation of the first bucket — the
  // interpolation walks the full bucket width.
  EXPECT_DOUBLE_EQ(h->P50(), 10.0);
  // p75: rank 15, 5 of 10 into the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(h->Quantile(0.75), 15.0);
  // The accessor and the free function on the serialized arrays agree.
  EXPECT_DOUBLE_EQ(h->P99(), HistogramQuantile(h->bounds(), h->buckets(), 0.99));
}

TEST(Metrics, QuantileClampsOverflowToHighestFiniteBound) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("overflow_ms", {}, {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(100.0);  // +inf bucket
  EXPECT_DOUBLE_EQ(h->P99(), 2.0);  // rank lands in overflow: clamp
  // q=0 still means rank 1; a lone observation interpolates to its bucket's
  // upper edge (the histogram only knows the bucket, not the raw value).
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 1.0);
}

TEST(Metrics, QuantileDegenerateShapesReturnZero) {
  // innet_top feeds HistogramQuantile arrays parsed from possibly truncated
  // dumps: none of these may index out of range or return NaN/garbage.
  EXPECT_DOUBLE_EQ(HistogramQuantile({}, {}, 0.5), 0.0);            // empty everything
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0}, {}, 0.5), 0.0);        // bounds, no buckets
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0}, {0, 0}, 0.99), 0.0);   // all-zero counts
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0}, {5, 0},
                                     std::numeric_limits<double>::quiet_NaN()),
                   0.0);                                            // NaN quantile
  // Truncated dump: more buckets than bounds beyond the one overflow bucket
  // still clamps to the highest finite bound instead of reading past it.
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0}, {0, 0, 7}, 0.5), 10.0);
  // Out-of-range q clamps instead of over/underflowing the rank.
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {4, 4}, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0, 20.0}, {4, 4}, -1.0),
                   HistogramQuantile({10.0, 20.0}, {4, 4}, 0.0));
}

TEST(Metrics, SingleBucketHistogramQuantilesAreStable) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("single_ms", {}, {50.0});
  EXPECT_DOUBLE_EQ(h->P50(), 0.0);  // empty
  h->Observe(10.0);
  // One observation: every quantile interpolates within the only bucket.
  EXPECT_DOUBLE_EQ(h->P50(), 50.0);
  EXPECT_DOUBLE_EQ(h->P90(), 50.0);
  EXPECT_DOUBLE_EQ(h->P99(), 50.0);
  h->Observe(999.0);  // overflow bucket
  EXPECT_DOUBLE_EQ(h->P99(), 50.0);  // clamps to the only finite bound
}

TEST(Tracer, SpanIdsAreUniqueAndParentDefaultsToTheStackTop) {
  EventTracer tracer;
  tracer.Enable();
  uint64_t outer = tracer.Record(1, EventKind::kDeployRequest, "client:a");
  EXPECT_NE(outer, 0u);
  tracer.PushSpan(outer);
  uint64_t inner = tracer.Record(2, EventKind::kAdmission, "client:a", "admitted");
  uint64_t explicit_parent = tracer.Record(3, EventKind::kVmBootReady, "vm:1", "", 0, inner);
  tracer.PopSpan();
  uint64_t root_again = tracer.Record(4, EventKind::kVmCrash, "vm:1");

  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_NE(inner, outer);
  EXPECT_EQ(events[0].parent, 0u);          // stack empty: root
  EXPECT_EQ(events[1].parent, outer);       // defaulted to stack top
  EXPECT_EQ(events[2].parent, inner);       // explicit parent wins
  EXPECT_EQ(events[2].span, explicit_parent);
  EXPECT_EQ(events[3].parent, 0u);          // popped back to root
  EXPECT_EQ(events[3].span, root_again);
}

TEST(Tracer, SpanScopePairsBeginWithEndAndAutoParents) {
  EventTracer tracer;
  tracer.Enable();
  {
    SpanScope deploy(tracer, 10, EventKind::kDeployRequest, "client:a");
    EXPECT_EQ(tracer.current_span(), deploy.id());
    tracer.Record(11, EventKind::kAdmission, "client:a", "admitted");
  }
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].parent, events[0].span);
  EXPECT_EQ(events[2].kind, EventKind::kSpanEnd);
  EXPECT_EQ(events[2].parent, events[0].span);  // end pairs with its begin
  EXPECT_EQ(events[2].time_ns, 10u);            // end reuses the opening time
  EXPECT_EQ(tracer.current_span(), 0u);         // scope popped
}

TEST(Tracer, ScopedParentReentersAndZeroIsANoOp) {
  EventTracer tracer;
  tracer.Enable();
  {
    ScopedParent reenter(tracer, 42);
    EXPECT_EQ(tracer.current_span(), 42u);
    tracer.Record(5, EventKind::kVmResume, "vm:7");
  }
  EXPECT_EQ(tracer.current_span(), 0u);
  {
    ScopedParent noop(tracer, 0);  // span never opened (tracer was off then)
    EXPECT_EQ(tracer.current_span(), 0u);
  }
  EXPECT_EQ(tracer.events()[0].parent, 42u);
}

TEST(Tracer, DroppedEventsStillConsumeSpanIdsAndExportToMetrics) {
  EventTracer tracer;
  tracer.Enable();
  tracer.set_capacity(2);
  uint64_t first = tracer.Record(1, EventKind::kVmBootStart, "vm:1");
  uint64_t second = tracer.Record(2, EventKind::kVmBootStart, "vm:2");
  uint64_t third = tracer.Record(3, EventKind::kVmBootStart, "vm:3");   // dropped
  uint64_t fourth = tracer.Record(4, EventKind::kVmBootReady, "vm:3", "", 0, third);  // dropped
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // Ids keep advancing under capacity pressure, so a parent link handed to an
  // async completion stays stable even when the begin event was dropped.
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(third, second + 1);
  EXPECT_EQ(fourth, third + 1);

  MetricsRegistry registry;
  tracer.ExportMetrics(&registry);
  EXPECT_EQ(registry.GetCounter("innet_trace_dropped_total")->value(), 2u);

  tracer.Clear();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.current_span(), 0u);
  EXPECT_EQ(tracer.Record(9, EventKind::kVmCrash, "vm:1"), 1u);  // ids restart
  tracer.ExportMetrics(&registry);
  EXPECT_EQ(registry.GetCounter("innet_trace_dropped_total")->value(), 0u);
}

TEST(Tracer, SpanNamespacesKeepMergedDumpsCollisionFree) {
  // Two independently created tracers (one per region controller in a real
  // multi-PoP deployment) mint ids from the same sequence; without
  // namespacing a merged dump collides on span 1, 2, 3, ...
  EventTracer east;
  EventTracer west;
  east.Enable();
  west.Enable();
  east.SetSpanNamespace(EventTracer::NamespaceForName("east"));
  west.SetSpanNamespace(EventTracer::NamespaceForName("west"));

  std::set<uint64_t> merged;
  for (int i = 0; i < 3; ++i) {
    merged.insert(east.Record(1, EventKind::kDeployRequest, "client:a"));
    merged.insert(west.Record(1, EventKind::kDeployRequest, "client:b"));
  }
  EXPECT_EQ(merged.size(), 6u) << "merged multi-region dump must have unique span ids";

  // Parent links stay namespace-local: an inner event parents to its own
  // tracer's namespaced id, so each region's trees survive the merge intact.
  east.PushSpan(*merged.begin());
  uint64_t child = east.Record(2, EventKind::kAdmission, "client:a");
  EXPECT_EQ(east.events().back().span, child);
  EXPECT_EQ(child >> EventTracer::kSpanNamespaceShift,
            EventTracer::NamespaceForName("east"));
}

TEST(Tracer, SpanNamespaceSurvivesClearAndShowsInDump) {
  EventTracer tracer;
  tracer.Enable();
  tracer.SetSpanNamespace(EventTracer::NamespaceForName("central"));
  tracer.Record(1, EventKind::kVmBootStart, "vm:1");
  tracer.Clear();
  tracer.Record(2, EventKind::kVmBootStart, "vm:2");
  // Clearing the ring must not silently drop the tracer back into the
  // colliding id space.
  EXPECT_EQ(tracer.events()[0].span >> EventTracer::kSpanNamespaceShift,
            EventTracer::NamespaceForName("central"));
  json::Value dump = tracer.ToJson();
  const json::Value* ns = dump.Find("span_namespace");
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(ns->int_number()),
            EventTracer::NamespaceForName("central"));

  // The default (namespace 0) tracer keeps the historical dump shape.
  EventTracer plain;
  plain.Enable();
  plain.Record(1, EventKind::kVmBootStart, "vm:1");
  EXPECT_EQ(plain.events()[0].span, 1u);
  EXPECT_EQ(plain.ToJson().Find("span_namespace"), nullptr);
}

TEST(Tracer, NamespaceForNameIsDeterministicAndNeverZero) {
  EXPECT_EQ(EventTracer::NamespaceForName("east"), EventTracer::NamespaceForName("east"));
  EXPECT_NE(EventTracer::NamespaceForName(""), 0u);
  for (const char* name : {"east", "west", "central", "eu-frankfurt", "ap-tokyo"}) {
    uint64_t ns = EventTracer::NamespaceForName(name);
    EXPECT_NE(ns, 0u) << name;
    EXPECT_LE(ns, 0xffu) << name;
  }
}

TEST(Tracer, PerfettoExportFoldsSpansIntoCompleteSlices) {
  EventTracer tracer;
  tracer.Enable();
  {
    SpanScope deploy(tracer, 1000, EventKind::kDeployRequest, "client:a");
    tracer.Record(2000, EventKind::kAdmission, "client:a", "admitted");
  }
  json::Value doc = tracer.ToPerfettoJson();
  EXPECT_EQ(doc.Find("displayTimeUnit")->string_value(), "ms");
  const json::Value* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);

  bool saw_metadata = false;
  bool saw_complete_slice = false;
  bool saw_instant = false;
  for (size_t i = 0; i < trace_events->size(); ++i) {
    const json::Value& event = trace_events->at(i);
    const std::string phase = event.Find("ph")->string_value();
    const std::string name = event.Find("name")->string_value();
    EXPECT_NE(name, "span_end");  // end markers fold into durations
    if (phase == "M") {
      saw_metadata = true;
    } else if (phase == "X" && name == "deploy_request") {
      saw_complete_slice = true;
      EXPECT_NE(event.Find("dur"), nullptr);
    } else if (phase == "i" && name == "admission_decision") {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_complete_slice);
  EXPECT_TRUE(saw_instant);
}

// THE tentpole acceptance check: one orchestrated deploy forms a single
// connected span tree — admission, placement, verification, boot, and
// cutover all reachable from the deploy_request root by parent links.
TEST(TraceSpans, OrchestratorDeployFormsOneConnectedTree) {
  sim::EventQueue clock;
  Tracer().Clear();
  Tracer().Enable();
  Tracer().SetTimeSource([&clock] { return clock.now(); });

  controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  controller::ClientRequest request;
  request.client_id = "spans";
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> FlowMeter() -> IPRewriter(pattern - - 10.10.0.5 - 0 0) "
      "-> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  auto deployed = orch.Deploy(request);
  ASSERT_TRUE(deployed.outcome.accepted) << deployed.outcome.reason;
  clock.RunUntil(clock.now() + sim::FromSeconds(1));  // guest boots

  std::vector<TraceEvent> events = Tracer().events();
  Tracer().Clear();
  Tracer().Enable(false);
  Tracer().SetTimeSource(nullptr);

  uint64_t root = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kDeployRequest) {
      root = event.span;
    }
  }
  ASSERT_NE(root, 0u);
  auto reachable_from_root = [&](const TraceEvent& event) {
    uint64_t at = event.span;
    for (int hops = 0; hops < 64; ++hops) {
      if (at == root) {
        return true;
      }
      if (at == 0) {
        return false;
      }
      uint64_t parent = 0;
      for (const TraceEvent& candidate : events) {
        if (candidate.span == at) {
          parent = candidate.parent;
        }
      }
      at = parent;
    }
    return false;
  };
  bool saw[5] = {false, false, false, false, false};
  for (const TraceEvent& event : events) {
    EventKind k = event.kind;
    if (k == EventKind::kAdmission || k == EventKind::kPlacementRanked ||
        k == EventKind::kVerifyFinish || k == EventKind::kVmBootStart ||
        k == EventKind::kDeployCutover || k == EventKind::kVmBootReady) {
      EXPECT_TRUE(reachable_from_root(event))
          << EventKindName(k) << " span " << event.span << " is disconnected";
      if (k == EventKind::kAdmission) saw[0] = true;
      if (k == EventKind::kPlacementRanked) saw[1] = true;
      if (k == EventKind::kVerifyFinish) saw[2] = true;
      if (k == EventKind::kVmBootStart) saw[3] = true;
      if (k == EventKind::kDeployCutover) saw[4] = true;
    }
  }
  for (bool got : saw) {
    EXPECT_TRUE(got);  // every stage of the deploy left a traced event
  }
}

TEST(Samples, PercentilesSurviveInterleavedAdds) {
  // The cached sorted view must invalidate on Add.
  sim::Samples samples;
  samples.Add(10.0);
  samples.Add(30.0);
  EXPECT_DOUBLE_EQ(samples.Max(), 30.0);
  samples.Add(50.0);  // after a sorted read
  EXPECT_DOUBLE_EQ(samples.Max(), 50.0);
  EXPECT_DOUBLE_EQ(samples.Min(), 10.0);
  EXPECT_DOUBLE_EQ(samples.Percentile(50), 30.0);
}

// Tenant names come from config files and the control channel, so every dump
// that embeds one must escape it: a name with a quote in it that reaches a
// dump unescaped silently corrupts the whole JSON document. Round-trip the
// metrics, trace, health, and flight-recorder dumps through the parser with
// a battery of hostile names (hand-picked plus LCG-generated from a hostile
// alphabet) and check each name survives byte-for-byte.
TEST(Json, HostileTenantNamesSurviveEveryDump) {
  std::vector<std::string> names = {
      "quote\"inside",
      "back\\slash",
      "new\nline",
      "tab\there",
      "ctrl\x01\x02\x1f",
      "braces{}and[]",
      "comma,colon:",
      "\"\\\"",  // quote backslash quote
      "trailing backslash\\",
  };
  // Deterministic "fuzz" tail: 16 names drawn from an alphabet that is all
  // sharp edges (LCG, fixed seed — no wall-clock randomness in tests).
  const std::string alphabet = "\"\\\n\t\x01\x1f{}[]:,/abc ";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 16; ++i) {
    std::string name = "t";
    for (int j = 0; j < 8; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      name += alphabet[(state >> 33) % alphabet.size()];
    }
    names.push_back(std::move(name));
  }

  for (const std::string& name : names) {
    // Metrics: the name lands in a label value (and the sorted label text).
    MetricsRegistry registry;
    registry.GetCounter("innet_fuzz_drops_total", {{"tenant", name}})->Increment();
    // Trace: target and detail both carry it.
    EventTracer tracer;
    tracer.Enable();
    tracer.Record(1, EventKind::kVmCrash, name, name);
    // Health: tenant key in the per-tenant table.
    HealthMonitor health(&registry);
    health.Enable();
    health.CountDrop(name);
    health.EvaluateAll();
    // Flight recorder: bundle tenant/target/detail and element names.
    FlightRecorder flight;
    flight.Record(2, EventKind::kVmCrash, name, name);
    PostmortemBundle bundle;
    bundle.target = name;
    bundle.tenant = name;
    bundle.detail = name;
    ElementCounterDelta delta;
    delta.element = name;
    delta.element_class = name;
    bundle.elements.push_back(std::move(delta));
    flight.SnapshotPostmortem(std::move(bundle));

    struct Dump {
      const char* which;
      json::Value doc;
    };
    Dump dumps[] = {{"metrics", registry.ToJson()},
                    {"trace", tracer.ToJson()},
                    {"health", health.ToJson()},
                    {"flight", flight.ToJson()}};
    for (Dump& dump : dumps) {
      std::string text = dump.doc.ToString(2);
      json::Value parsed;
      std::string error;
      ASSERT_TRUE(json::Value::Parse(text, &parsed, &error))
          << dump.which << " dump corrupted by name "
          << json::Escape(name) << ": " << error;
      // Byte-stable too: serializing the parse reproduces the dump.
      EXPECT_EQ(parsed.ToString(2), text) << dump.which;
    }
    // The name itself round-trips exactly where it matters most.
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::Value::Parse(health.ToJson().ToString(2), &parsed, &error)) << error;
    ASSERT_EQ(parsed.Find("tenants")->size(), 1u);
    EXPECT_EQ(parsed.Find("tenants")->at(0).Find("tenant")->string_value(), name);
    json::Value metrics_parsed;
    ASSERT_TRUE(
        json::Value::Parse(registry.ToJson().ToString(2), &metrics_parsed, &error)) << error;
    bool found = false;
    const json::Value* metrics = metrics_parsed.Find("metrics");
    ASSERT_NE(metrics, nullptr);
    for (size_t i = 0; i < metrics->size(); ++i) {
      const json::Value* labels = metrics->at(i).Find("labels");
      if (labels == nullptr || labels->Find("tenant") == nullptr) {
        continue;
      }
      if (labels->Find("tenant")->string_value() == name) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "tenant label lost from metrics dump: " << json::Escape(name);
  }
}

TEST(Samples, ToHistogramReplaysEveryValue) {
  sim::Samples samples;
  samples.Add(0.5);
  samples.Add(1.5);
  samples.Add(9.0);
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("s", {}, {1.0, 2.0});
  samples.ToHistogram(h);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->buckets()[0], 1u);
  EXPECT_EQ(h->buckets()[1], 1u);
  EXPECT_EQ(h->buckets()[2], 1u);
}

}  // namespace
}  // namespace innet::obs
