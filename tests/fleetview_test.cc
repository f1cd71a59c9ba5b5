// FleetView: per-region delta tracking from cumulative digest samples,
// ingestion idempotence under duplicated/reordered digests, EWMA anomaly
// flags, regional-vs-fleet incident correlation, and the deterministic dump.
#include "src/obs/fleetview.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::obs {
namespace {

constexpr uint64_t kSecond = 1'000'000'000ull;

// Each test gets its own registry + tracer so counters and events don't
// bleed across tests through the process-wide singletons.
class FleetViewTest : public ::testing::Test {
 protected:
  FleetViewTest() : view_(&registry_, &tracer_) { tracer_.Enable(); }

  std::map<std::string, uint64_t> Sample(uint64_t value) {
    return {{"control_retries", value}};
  }

  uint64_t IncidentCounter(const std::string& scope) {
    return static_cast<uint64_t>(
        registry_.GetCounter("innet_fleet_incidents_total", {{"scope", scope}})->value());
  }

  MetricsRegistry registry_;
  EventTracer tracer_;
  FleetView view_;
};

TEST_F(FleetViewTest, TracksDeltasFromCumulativeSamples) {
  view_.Ingest("east", 1, 1 * kSecond, false, Sample(10));
  view_.Ingest("east", 2, 2 * kSecond, false, Sample(14));
  view_.Ingest("east", 3, 3 * kSecond, false, Sample(14));
  EXPECT_EQ(view_.FleetTotal("control_retries"), 14u);
  EXPECT_EQ(view_.region_count(), 1u);
  EXPECT_EQ(view_.ingests(), 3u);

  json::Value dump = view_.ToJson(3 * kSecond);
  const json::Value* fleet = dump.Find("fleet");
  ASSERT_NE(fleet, nullptr);
  const json::Value* series = fleet->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 1u);
  const json::Value* regions = series->at(0).Find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_EQ(regions->size(), 1u);
  EXPECT_EQ(regions->at(0).Find("last")->int_number(), 14);
  EXPECT_EQ(regions->at(0).Find("last_delta")->int_number(), 0);
  EXPECT_EQ(regions->at(0).Find("delta_points")->int_number(), 3);
}

TEST_F(FleetViewTest, DuplicateAndReorderedSeqsNeverDoubleCount) {
  view_.Ingest("east", 1, 1 * kSecond, false, Sample(10));
  view_.Ingest("east", 2, 2 * kSecond, false, Sample(20));
  // A WAN duplicate of seq 2 and a reordered seq 1 must both be ignored:
  // same ingest count, same deltas, no phantom points.
  view_.Ingest("east", 2, 3 * kSecond, false, Sample(20));
  view_.Ingest("east", 1, 3 * kSecond, false, Sample(10));
  EXPECT_EQ(view_.ingests(), 2u);
  EXPECT_EQ(view_.FleetTotal("control_retries"), 20u);

  json::Value dump = view_.ToJson(3 * kSecond);
  const json::Value* regions =
      dump.Find("fleet")->Find("series")->at(0).Find("regions");
  EXPECT_EQ(regions->at(0).Find("delta_points")->int_number(), 2);
}

TEST_F(FleetViewTest, CounterResetRestartsDeltaFromNewValue) {
  view_.Ingest("east", 1, 1 * kSecond, false, Sample(100));
  view_.Ingest("east", 2, 2 * kSecond, false, Sample(104));
  // The region's orchestrator restarted: the cumulative counter shrank. The
  // delta restarts from the new value instead of going negative/huge.
  view_.Ingest("east", 3, 3 * kSecond, false, Sample(3));
  json::Value dump = view_.ToJson(3 * kSecond);
  const json::Value* row = &dump.Find("fleet")->Find("series")->at(0).Find("regions")->at(0);
  EXPECT_EQ(row->Find("last")->int_number(), 3);
  EXPECT_EQ(row->Find("last_delta")->int_number(), 3);
}

TEST_F(FleetViewTest, SustainedBurstFlagsRegionalIncident) {
  uint64_t cumulative = 0;
  uint64_t seq = 0;
  // Warmup with quiet deltas of 1, then a sustained burst of 100/digest.
  for (int i = 0; i < 6; ++i) {
    cumulative += 1;
    ++seq;
    view_.Ingest("east", seq, seq * kSecond, false, Sample(cumulative));
  }
  EXPECT_TRUE(view_.incidents().empty());
  cumulative += 100;
  ++seq;
  view_.Ingest("east", seq, seq * kSecond, false, Sample(cumulative));
  EXPECT_TRUE(view_.incidents().empty()) << "one deviant window must not flag yet";
  cumulative += 100;
  ++seq;
  view_.Ingest("east", seq, seq * kSecond, false, Sample(cumulative));

  ASSERT_EQ(view_.incidents().size(), 1u);
  const FleetView::Incident& incident = view_.incidents()[0];
  EXPECT_EQ(incident.scope, "regional");
  EXPECT_EQ(incident.metric, "control_retries");
  ASSERT_EQ(incident.regions.size(), 1u);
  EXPECT_EQ(incident.regions[0], "east");
  EXPECT_EQ(IncidentCounter("regional"), 1u);
  EXPECT_EQ(IncidentCounter("fleet"), 0u);

  // The flag is one-per-episode: further deviant windows don't re-raise.
  cumulative += 100;
  ++seq;
  view_.Ingest("east", seq, seq * kSecond, false, Sample(cumulative));
  EXPECT_EQ(view_.incidents().size(), 1u);

  // The episode's trace event went to our tracer with the wire kind.
  bool traced = false;
  for (const TraceEvent& event : tracer_.events()) {
    traced |= event.kind == EventKind::kFleetIncident;
  }
  EXPECT_TRUE(traced);
}

TEST_F(FleetViewTest, CorrelatedBurstsPromoteToFleetIncident) {
  uint64_t east = 0;
  uint64_t west = 0;
  uint64_t seq = 0;
  for (int i = 0; i < 6; ++i) {
    east += 1;
    west += 1;
    ++seq;
    view_.Ingest("east", seq, seq * kSecond, false, Sample(east));
    view_.Ingest("west", seq, seq * kSecond, false, Sample(west));
  }
  // Both regions burst inside the correlation window (same digest rounds).
  for (int i = 0; i < 2; ++i) {
    east += 100;
    west += 100;
    ++seq;
    view_.Ingest("east", seq, seq * kSecond, false, Sample(east));
    view_.Ingest("west", seq, seq * kSecond, false, Sample(west));
  }
  ASSERT_GE(view_.incidents().size(), 2u);
  // East flags first (no peer flagged yet -> regional); west's flag sees
  // east's inside the window and promotes to fleet scope.
  EXPECT_EQ(view_.incidents()[0].scope, "regional");
  const FleetView::Incident& fleet_incident = view_.incidents()[1];
  EXPECT_EQ(fleet_incident.scope, "fleet");
  ASSERT_EQ(fleet_incident.regions.size(), 2u);
  EXPECT_EQ(fleet_incident.regions[0], "east");
  EXPECT_EQ(fleet_incident.regions[1], "west");
  EXPECT_EQ(IncidentCounter("fleet"), 1u);
}

TEST_F(FleetViewTest, AnomalousRegionsExpireWithTheWindow) {
  uint64_t cumulative = 0;
  uint64_t seq = 0;
  for (int i = 0; i < 6; ++i) {
    cumulative += 1;
    ++seq;
    view_.Ingest("east", seq, seq * kSecond, false, Sample(cumulative));
  }
  for (int i = 0; i < 2; ++i) {
    cumulative += 100;
    ++seq;
    view_.Ingest("east", seq, seq * kSecond, false, Sample(cumulative));
  }
  uint64_t flagged_at = seq * kSecond;
  ASSERT_EQ(view_.AnomalousRegions(flagged_at).size(), 1u);
  EXPECT_EQ(view_.AnomalousRegions(flagged_at)[0], "east");

  // Quiet windows end the episode; once the correlation window has passed,
  // the region stops ranking as anomalous.
  cumulative += 1;
  view_.Ingest("east", ++seq, flagged_at + 1 * kSecond, false, Sample(cumulative));
  EXPECT_TRUE(view_.AnomalousRegions(flagged_at + 10 * kSecond).empty());
}

TEST_F(FleetViewTest, StalenessAndDegradedLabelsInDump) {
  view_.Ingest("east", 1, 1 * kSecond, false, Sample(1));
  view_.Ingest("west", 1, 5 * kSecond, true, Sample(1));
  json::Value dump = view_.ToJson(5 * kSecond);
  const json::Value* regions = dump.Find("fleet")->Find("regions");
  ASSERT_EQ(regions->size(), 2u);
  EXPECT_EQ(regions->at(0).Find("region")->string_value(), "east");
  EXPECT_TRUE(regions->at(0).Find("stale")->bool_value());
  EXPECT_FALSE(regions->at(0).Find("degraded")->bool_value());
  EXPECT_EQ(regions->at(1).Find("region")->string_value(), "west");
  EXPECT_FALSE(regions->at(1).Find("stale")->bool_value());
  EXPECT_TRUE(regions->at(1).Find("degraded")->bool_value());
}

TEST_F(FleetViewTest, DumpIsByteDeterministic) {
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    view_.Ingest("west", seq, seq * kSecond, false, Sample(seq * 3));
    view_.Ingest("east", seq, seq * kSecond, false,
                 {{"control_retries", seq * 2}, {"deploys_served", seq}});
  }
  std::string first = view_.ToJson(6 * kSecond).ToString(2);
  std::string second = view_.ToJson(6 * kSecond).ToString(2);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"fleet\""), std::string::npos);
  EXPECT_NE(first.find("incident_totals"), std::string::npos);
}

}  // namespace
}  // namespace innet::obs
