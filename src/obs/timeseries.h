// Time-series telemetry: a sim-clock-driven sampler that turns the
// point-in-time MetricsRegistry into bounded per-metric rings of windowed
// observations, plus an EWMA anomaly detector over those windows.
//
// Every dump the registry produces is an end-of-run aggregate; nothing can
// answer "when did throughput dip?" inside a run. The TimeSeriesSampler
// closes that gap: once per window (default 100 ms of simulated time) it
// scrapes every instrument and appends one point per series —
//
//   counters    -> the window's delta and a per-second rate
//   gauges      -> the raw value at the window edge
//   histograms  -> the window's observation count and the p50/p99 of the
//                  *delta* buckets (observations made inside this window
//                  only, not the run-to-date aggregate)
//
// Points live in bounded rings (oldest evicted, eviction counted), so a
// long experiment stays fixed-memory. Determinism contract: the sampler is
// driven by caller-provided simulated timestamps and reads only registry
// values, so `innet_run --timeseries-out` dumps are byte-identical across
// repeat seeded runs — the same property every other obs dump holds.
//
// The AnomalyDetector consumes the same windowed stream: each rule tracks an
// EWMA baseline per series and flags a *sustained* deviation (value above
// factor * baseline + slack for `sustain_windows` consecutive windows, after
// a warmup). A flag records an `anomaly` trace event, bumps
// innet_anomaly_flags_total{signal}, and — when the rule attributes the
// series to a tenant — feeds HealthMonitor::CountAnomaly so detection steers
// rebalancing and watchdog priority like any other SLO clause. The baseline
// freezes while deviant, so a spike cannot ratchet itself into normality.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/health.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::obs {

class AnomalyDetector;

// One windowed observation. Which fields are meaningful depends on the
// series kind; unused fields stay 0 and are omitted from the dump.
struct SeriesPoint {
  uint64_t t_ns = 0;   // window END, simulated time
  double value = 0;    // counter: rate/s over the window; gauge: value; histogram: window p99
  uint64_t count = 0;  // counter: raw window delta; histogram: window observation count
  double p50 = 0;      // histogram only: window p50
};

enum class SeriesKind { kCounterRate, kGauge, kHistogramWindow };

// Stable wire name ("counter_rate", "gauge", "histogram_window").
const char* SeriesKindName(SeriesKind kind);

// A bounded ring of windowed points for one instrument.
class Series {
 public:
  Series(std::string name, Labels labels, SeriesKind kind, size_t capacity)
      : name_(std::move(name)), labels_(std::move(labels)), kind_(kind), capacity_(capacity) {}

  const std::string& name() const { return name_; }
  const Labels& labels() const { return labels_; }
  SeriesKind kind() const { return kind_; }
  uint64_t total_points() const { return total_points_; }
  uint64_t evicted_points() const { return total_points_ - ring_.size(); }
  size_t size() const { return ring_.size(); }

  void Append(SeriesPoint point);
  // Ring contents, oldest first.
  std::vector<SeriesPoint> Points() const;
  // The newest point (undefined when size() == 0).
  const SeriesPoint& Last() const;

 private:
  std::string name_;
  Labels labels_;
  SeriesKind kind_;
  size_t capacity_;
  uint64_t total_points_ = 0;
  std::vector<SeriesPoint> ring_;  // ring_[i % capacity_], overwritten in place
  size_t head_ = 0;                // next slot once full
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(MetricsRegistry* registry = &MetricsRegistry::Global());
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Window length recorded in the dump header; the actual rate denominator
  // is the elapsed time between SampleWindow calls, so an irregular driver
  // still produces correct rates. Configure before the first sample.
  void set_window_ns(uint64_t window_ns) { window_ns_ = window_ns == 0 ? 1 : window_ns; }
  uint64_t window_ns() const { return window_ns_; }

  // Ring capacity applied to series created after the call (default 1024
  // windows ≈ 100 s at the default window).
  void set_ring_capacity(size_t capacity) { ring_capacity_ = capacity == 0 ? 1 : capacity; }

  // Routes every sampled point through `detector` (not owned). Attach before
  // sampling starts so baselines see the whole run.
  void AttachDetector(AnomalyDetector* detector) { detector_ = detector; }

  // Closes the window ending at `now_ns`: scrapes every registry instrument,
  // appends one point per series, and feeds the detector. Calls with now_ns
  // <= the previous sample time are ignored (a window cannot end twice).
  void SampleWindow(uint64_t now_ns);

  uint64_t windows_sampled() const { return windows_sampled_; }
  size_t series_count() const { return tracks_.size(); }
  // Lookup by instrument name + labels (canonicalized); nullptr when the
  // instrument never appeared in a sampled window.
  const Series* FindSeries(const std::string& name, const Labels& labels = {}) const;

  // {"window_ns", "windows_sampled", "series": [...], "anomalies": [...]}.
  // Series keep registry dump order (name, then canonical labels); the
  // anomalies array is present only when a detector is attached.
  json::Value ToJson() const;
  bool WriteJsonFile(const std::string& path) const;

 private:
  struct Track {
    Series series;
    // Previous scrape, for deltas. A value that shrank (ResetValues between
    // bench scenarios) is treated as a counter reset: prev becomes 0.
    uint64_t prev_counter = 0;
    uint64_t prev_hist_count = 0;
    std::vector<uint64_t> prev_buckets;
  };

  MetricsRegistry* registry_;
  AnomalyDetector* detector_ = nullptr;
  uint64_t window_ns_ = 100'000'000;  // 100 ms
  size_t ring_capacity_ = 1024;
  uint64_t windows_sampled_ = 0;
  uint64_t last_sample_ns_ = 0;
  Counter* windows_counter_ = nullptr;
  // Keyed like the registry (name + canonical labels) so iteration order
  // matches the metrics dump and stays deterministic.
  std::map<std::string, Track> tracks_;
};

// One detection rule: watch `metric` (every label variant independently) and
// flag sustained deviations above an EWMA baseline.
struct AnomalyRule {
  std::string signal;        // stable wire name, e.g. "drop_rate_spike"
  std::string metric;        // registry metric name to watch
  std::string tenant_label;  // label whose value feeds HealthMonitor ("" = fleet-level)
  double ewma_alpha = 0.3;   // baseline update weight for non-deviant windows
  double factor = 3.0;       // deviant when value > factor * baseline + min_delta
  double min_delta = 1.0;    // absolute slack, so a near-zero baseline is not hair-trigger
  int sustain_windows = 3;   // consecutive deviant windows before flagging
  int warmup_windows = 3;    // windows observed before deviation checks start
};

class AnomalyDetector {
 public:
  explicit AnomalyDetector(EventTracer* tracer = &EventTracer::Global(),
                           HealthMonitor* health = &HealthMonitor::Global(),
                           MetricsRegistry* registry = &MetricsRegistry::Global())
      : tracer_(tracer), health_(health), registry_(registry) {}
  AnomalyDetector(const AnomalyDetector&) = delete;
  AnomalyDetector& operator=(const AnomalyDetector&) = delete;

  void AddRule(AnomalyRule rule) { rules_.push_back(std::move(rule)); }
  // The built-in watchlist: per-tenant and platform drop-rate spikes,
  // controller and per-tenant verify-latency inflation, control-channel
  // retry storms.
  void UseDefaultRules();
  size_t rule_count() const { return rules_.size(); }

  struct Flag {
    uint64_t t_ns = 0;
    std::string signal;
    std::string metric;
    std::string target;  // "tenant:<id>" when attributed, else "metric:<name>"
    std::string tenant;  // attributed tenant ("" = fleet-level)
    double value = 0;    // the deviant observation
    double baseline = 0; // the frozen EWMA it deviated from
  };
  const std::vector<Flag>& flags() const { return flags_; }

  // Called by the sampler once per series point per window. `value` is the
  // point's primary value (rate, gauge value, or window p99).
  void Observe(uint64_t t_ns, const std::string& metric, const Labels& labels, double value);

  json::Value ToJson() const;

 private:
  struct Baseline {
    double ewma = 0;
    int observed = 0;
    int deviant_streak = 0;
    bool flagged = false;  // current episode already reported
  };

  void RaiseFlag(uint64_t t_ns, const AnomalyRule& rule, const Labels& labels, double value,
                 double baseline);

  EventTracer* tracer_;
  HealthMonitor* health_;
  MetricsRegistry* registry_;
  std::vector<AnomalyRule> rules_;
  std::vector<Flag> flags_;
  // Keyed by (rule index, series key): each rule tracks each label variant
  // of its metric independently.
  std::map<std::pair<size_t, std::string>, Baseline> baselines_;
};

}  // namespace innet::obs

#endif  // SRC_OBS_TIMESERIES_H_
