// FleetView: the coordinator-side half of the federated observability plane.
//
// Each region's gossip digest carries a compact cumulative metrics snapshot
// (RegionDigest::metric_samples — counters the region reads off its own
// orchestrator, not the process-wide registry). The coordinator feeds every
// *accepted* digest here; since AcceptDigest discards duplicate and
// reordered digests by sequence number, ingestion is naturally idempotent —
// a WAN-duplicated digest can never double-count a delta. FleetView turns
// the per-region cumulative samples into:
//
//   - per-region delta series (sample minus the region's previous sample,
//     with a reset guard mirroring the TimeSeriesSampler's),
//   - fleet-level series (the sum of every region's latest cumulative
//     value) with per-region staleness labels,
//   - EWMA anomaly flags per (region, metric) — same shape as the
//     AnomalyDetector's rules: warmup, factor * baseline + slack, sustained
//     windows, baseline frozen while deviant —
//   - and correlated *incidents*: a flag seen in one region inside the
//     correlation window is a `regional` incident; the same metric flagged
//     in two or more regions is promoted to a `fleet` incident
//     (innet_fleet_incidents_total{scope}, `fleet_incident` trace event).
//
// The coordinator consults AnomalousRegions() during placement so flagged
// regions rank after quiet ones (scheduler::RankRegions), and ToJson()
// renders the whole view as a byte-deterministic dump (sorted maps,
// sim-clock timestamps only) — the artifact behind `--fleet-obs-out`.
#ifndef SRC_OBS_FLEETVIEW_H_
#define SRC_OBS_FLEETVIEW_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::obs {

class FleetView {
 public:
  explicit FleetView(MetricsRegistry* registry = &MetricsRegistry::Global(),
                     EventTracer* tracer = &EventTracer::Global())
      : registry_(registry), tracer_(tracer) {}
  FleetView(const FleetView&) = delete;
  FleetView& operator=(const FleetView&) = delete;

  // A region whose last ingest is older than this is labeled stale in the
  // dump; the coordinator ranks a region with a digest this old after every
  // fresh one.
  static constexpr uint64_t kStalenessWindowNs = 2'000'000'000;  // 2 s

  // Ingests one region's digest-carried cumulative samples. The caller must
  // already have discarded duplicates/reorders (the coordinator's seq guard
  // does); calling again with a seq <= the last ingested one is ignored
  // here too, so the no-double-count property holds even without the guard.
  void Ingest(const std::string& region, uint64_t seq, uint64_t now_ns, bool degraded,
              const std::map<std::string, uint64_t>& samples);

  // Regions with an anomaly flag raised within the correlation window of
  // `now_ns` (sorted). The coordinator demotes these during placement.
  std::vector<std::string> AnomalousRegions(uint64_t now_ns) const;

  struct Incident {
    uint64_t t_ns = 0;
    std::string metric;
    std::string scope;                 // "regional" or "fleet"
    std::vector<std::string> regions;  // sorted regions implicated
    double value = 0;                  // the deviant delta that triggered it
    double baseline = 0;               // the frozen EWMA it deviated from
  };
  const std::vector<Incident>& incidents() const { return incidents_; }

  size_t region_count() const { return regions_.size(); }
  uint64_t ingests() const { return ingests_; }
  // Sum of every region's latest cumulative sample for `metric` (0 when the
  // metric never appeared in any digest).
  uint64_t FleetTotal(const std::string& metric) const;

  // {"fleet": {...}} — regions with staleness labels, merged fleet series,
  // and the incident log. Deterministic: sorted maps, sim-clock values only.
  json::Value ToJson(uint64_t now_ns) const;
  bool WriteJsonFile(const std::string& path, uint64_t now_ns) const;

 private:
  // One (region, metric) track: the last cumulative sample plus the EWMA
  // baseline over its per-digest deltas.
  struct Track {
    uint64_t last_value = 0;
    uint64_t delta_points = 0;
    uint64_t last_delta = 0;
    double ewma = 0;
    int observed = 0;
    int deviant_streak = 0;
    bool flagged = false;     // current episode already reported
    uint64_t flag_ns = 0;     // when the current/most recent episode flagged
    double flag_value = 0;
    double flag_baseline = 0;
  };
  struct RegionState {
    uint64_t last_seq = 0;
    uint64_t last_ingest_ns = 0;
    uint64_t ingests = 0;
    bool degraded = false;
    std::map<std::string, Track> tracks;  // metric -> track
  };

  void ObserveDelta(const std::string& region, const std::string& metric, Track* track,
                    uint64_t delta, uint64_t now_ns);
  void RaiseIncident(const std::string& region, const std::string& metric, Track* track,
                     uint64_t now_ns);

  MetricsRegistry* registry_;
  EventTracer* tracer_;
  uint64_t ingests_ = 0;
  std::map<std::string, RegionState> regions_;
  std::vector<Incident> incidents_;
};

}  // namespace innet::obs

#endif  // SRC_OBS_FLEETVIEW_H_
