// Shared helpers for the experiment harnesses: wall-clock timing,
// paper-style table printing, and JSON telemetry snapshots.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace innet::bench {

// Collects a bench's headline metrics into the `series` section of its
// snapshot. Only feed it values derived from the simulated clock or
// deterministic work counts: the committed snapshots are compared byte for
// byte, and wall-clock timings vary from run to run.
class BenchSeries {
 public:
  BenchSeries& Add(const std::string& metric, double value, const std::string& unit) {
    obs::json::Value entry = obs::json::Value::Object();
    entry.Set("metric", metric);
    entry.Set("value", value);
    entry.Set("unit", unit);
    entries_.Push(std::move(entry));
    return *this;
  }

  // The JSON array for results.Set("series", ...).
  const obs::json::Value& ToJson() const { return entries_; }

 private:
  obs::json::Value entries_ = obs::json::Value::Array();
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedSec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  double ElapsedMs() const { return ElapsedSec() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintRule() {
  std::printf("------------------------------------------------------------------------\n");
}

// Writes a bench telemetry snapshot to BENCH_<name>.json in the working
// directory, wrapping `results` with the bench name so downstream tooling
// (scripts/regenerate_results.sh, plotting) can discover and validate it.
// Returns false (after printing to stderr) on I/O failure.
inline bool WriteBenchJson(const std::string& name, obs::json::Value results) {
  obs::json::Value doc = obs::json::Value::Object();
  doc.Set("bench", name);
  doc.Set("results", std::move(results));
  std::string path = "BENCH_" + name + ".json";
  if (!doc.WriteFile(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("telemetry -> %s\n", path.c_str());
  return true;
}

// Summarizes a registry histogram with its deterministic quantile accessors
// (bucket interpolation, no sample retention) — the bench-side counterpart
// of what innet_top computes from a serialized dump.
inline obs::json::Value HistogramSummaryJson(const obs::Histogram& histogram) {
  obs::json::Value out = obs::json::Value::Object();
  out.Set("count", histogram.count());
  out.Set("sum", histogram.sum());
  out.Set("p50", histogram.P50());
  out.Set("p90", histogram.P90());
  out.Set("p99", histogram.P99());
  return out;
}

}  // namespace innet::bench

#endif  // BENCH_BENCH_UTIL_H_
