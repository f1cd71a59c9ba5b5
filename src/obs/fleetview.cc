#include "src/obs/fleetview.h"

#include <algorithm>

namespace innet::obs {
namespace {

// Two regions flagging the same metric within this window correlate into
// one fleet-wide incident.
constexpr uint64_t kCorrelationWindowNs = 5'000'000'000;  // 5 s

// EWMA anomaly parameters, shared by every (region, metric) baseline.
constexpr double kEwmaAlpha = 0.3;      // baseline update weight for non-deviant deltas
constexpr double kDeviantFactor = 4.0;  // deviant when delta > factor * baseline + slack
constexpr double kMinDelta = 8.0;       // the slack, against near-zero baselines
constexpr int kSustainWindows = 2;      // consecutive deviant digests before flagging
constexpr int kWarmupWindows = 4;       // digests observed before checks start

}  // namespace

void FleetView::Ingest(const std::string& region, uint64_t seq, uint64_t now_ns, bool degraded,
                       const std::map<std::string, uint64_t>& samples) {
  RegionState& state = regions_[region];
  if (state.ingests > 0 && seq <= state.last_seq) {
    // Belt and suspenders under the coordinator's own seq guard: a duplicate
    // or reordered digest must never count its deltas twice.
    return;
  }
  state.last_seq = seq;
  state.last_ingest_ns = now_ns;
  ++state.ingests;
  ++ingests_;
  state.degraded = degraded;
  for (const auto& [metric, value] : samples) {
    Track& track = state.tracks[metric];
    // Reset guard (the region's orchestrator was rebuilt): a shrinking
    // cumulative counter restarts the delta from the new value.
    uint64_t delta = value >= track.last_value ? value - track.last_value : value;
    if (track.delta_points == 0) {
      // First sample: the cumulative value is history, not a window delta.
      delta = 0;
    }
    track.last_value = value;
    ObserveDelta(region, metric, &track, delta, now_ns);
  }
}

void FleetView::ObserveDelta(const std::string& region, const std::string& metric, Track* track,
                             uint64_t delta, uint64_t now_ns) {
  ++track->delta_points;
  track->last_delta = delta;
  const double value = static_cast<double>(delta);
  if (track->observed < kWarmupWindows) {
    ++track->observed;
    track->ewma = track->observed == 1
                      ? value
                      : kEwmaAlpha * value + (1 - kEwmaAlpha) * track->ewma;
    return;
  }
  bool deviant = value > kDeviantFactor * track->ewma + kMinDelta;
  if (deviant) {
    // The baseline freezes: a sustained burst cannot ratchet itself normal.
    ++track->deviant_streak;
    if (track->deviant_streak >= kSustainWindows && !track->flagged) {
      track->flagged = true;
      track->flag_ns = now_ns;
      track->flag_value = value;
      track->flag_baseline = track->ewma;
      RaiseIncident(region, metric, track, now_ns);
    }
    return;
  }
  track->deviant_streak = 0;
  track->flagged = false;  // episode over; the next burst flags again
  ++track->observed;
  track->ewma = kEwmaAlpha * value + (1 - kEwmaAlpha) * track->ewma;
}

void FleetView::RaiseIncident(const std::string& region, const std::string& metric, Track* track,
                              uint64_t now_ns) {
  // Correlate: every other region whose flag for the same metric is inside
  // the correlation window is implicated; two or more regions promote the
  // incident from regional to fleet-wide.
  Incident incident;
  incident.t_ns = now_ns;
  incident.metric = metric;
  incident.value = track->flag_value;
  incident.baseline = track->flag_baseline;
  incident.regions.push_back(region);
  for (const auto& [other_name, other_state] : regions_) {
    if (other_name == region) {
      continue;
    }
    auto it = other_state.tracks.find(metric);
    if (it == other_state.tracks.end() || it->second.flag_ns == 0) {
      continue;
    }
    if (now_ns - it->second.flag_ns <= kCorrelationWindowNs) {
      incident.regions.push_back(other_name);
    }
  }
  std::sort(incident.regions.begin(), incident.regions.end());
  incident.scope = incident.regions.size() >= 2 ? "fleet" : "regional";
  registry_->GetCounter("innet_fleet_incidents_total", {{"scope", incident.scope}})->Increment();
  if (tracer_->enabled()) {
    std::string detail = incident.scope + " " + metric + ":";
    for (const std::string& name : incident.regions) {
      detail += " " + name;
    }
    tracer_->Record(now_ns, EventKind::kFleetIncident, "region:" + region, detail,
                    static_cast<int64_t>(track->flag_value));
  }
  incidents_.push_back(std::move(incident));
}

std::vector<std::string> FleetView::AnomalousRegions(uint64_t now_ns) const {
  std::vector<std::string> out;
  for (const auto& [name, state] : regions_) {
    for (const auto& [metric, track] : state.tracks) {
      bool recent = track.flag_ns != 0 && now_ns - track.flag_ns <= kCorrelationWindowNs;
      if (track.flagged || recent) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;  // map iteration: already sorted
}

uint64_t FleetView::FleetTotal(const std::string& metric) const {
  uint64_t total = 0;
  for (const auto& [name, state] : regions_) {
    auto it = state.tracks.find(metric);
    if (it != state.tracks.end()) {
      total += it->second.last_value;
    }
  }
  return total;
}

json::Value FleetView::ToJson(uint64_t now_ns) const {
  json::Value fleet = json::Value::Object();
  fleet.Set("generated_ns", now_ns);
  fleet.Set("staleness_window_ns", kStalenessWindowNs);
  fleet.Set("correlation_window_ns", kCorrelationWindowNs);
  fleet.Set("ingests", ingests_);

  std::vector<std::string> anomalous = AnomalousRegions(now_ns);
  json::Value regions = json::Value::Array();
  for (const auto& [name, state] : regions_) {
    json::Value entry = json::Value::Object();
    entry.Set("region", name);
    entry.Set("last_seq", state.last_seq);
    entry.Set("ingests", state.ingests);
    entry.Set("last_ingest_ns", state.last_ingest_ns);
    entry.Set("stale", now_ns - state.last_ingest_ns > kStalenessWindowNs);
    entry.Set("degraded", state.degraded);
    entry.Set("anomalous",
              std::binary_search(anomalous.begin(), anomalous.end(), name));
    regions.Push(std::move(entry));
  }
  fleet.Set("regions", std::move(regions));

  // Union of every region's metrics, sorted; each fleet series is the sum of
  // the regions' latest cumulative values plus the per-region breakdown.
  std::map<std::string, bool> metrics;
  for (const auto& [name, state] : regions_) {
    for (const auto& [metric, track] : state.tracks) {
      metrics[metric] = true;
    }
  }
  json::Value series = json::Value::Array();
  for (const auto& [metric, unused] : metrics) {
    json::Value entry = json::Value::Object();
    entry.Set("metric", metric);
    entry.Set("fleet_total", FleetTotal(metric));
    json::Value per_region = json::Value::Array();
    for (const auto& [name, state] : regions_) {
      auto it = state.tracks.find(metric);
      if (it == state.tracks.end()) {
        continue;
      }
      json::Value row = json::Value::Object();
      row.Set("region", name);
      row.Set("last", it->second.last_value);
      row.Set("last_delta", it->second.last_delta);
      row.Set("delta_points", it->second.delta_points);
      row.Set("flagged", it->second.flagged);
      per_region.Push(std::move(row));
    }
    entry.Set("regions", std::move(per_region));
    series.Push(std::move(entry));
  }
  fleet.Set("series", std::move(series));

  json::Value incidents = json::Value::Array();
  uint64_t fleet_scope = 0;
  uint64_t regional_scope = 0;
  for (const Incident& incident : incidents_) {
    json::Value entry = json::Value::Object();
    entry.Set("t_ns", incident.t_ns);
    entry.Set("metric", incident.metric);
    entry.Set("scope", incident.scope);
    json::Value names = json::Value::Array();
    for (const std::string& name : incident.regions) {
      names.Push(name);
    }
    entry.Set("regions", std::move(names));
    entry.Set("value", incident.value);
    entry.Set("baseline", incident.baseline);
    incidents.Push(std::move(entry));
    (incident.scope == "fleet" ? fleet_scope : regional_scope) += 1;
  }
  fleet.Set("incidents", std::move(incidents));
  json::Value totals = json::Value::Object();
  totals.Set("fleet", fleet_scope);
  totals.Set("regional", regional_scope);
  fleet.Set("incident_totals", std::move(totals));

  json::Value root = json::Value::Object();
  root.Set("fleet", std::move(fleet));
  return root;
}

bool FleetView::WriteJsonFile(const std::string& path, uint64_t now_ns) const {
  return ToJson(now_ns).WriteFile(path);
}

}  // namespace innet::obs
