#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace perfbench {
namespace {

thread_local uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

uint64_t AllocCount() { return g_allocs; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long center = std::lround(q * static_cast<double>(n - 1));
  const long half = std::max(1L, n / 200);
  const long lo = std::max(0L, center - half);
  const long hi = std::min(n - 1, center + half);
  double sum = 0;
  for (long i = lo; i <= hi; ++i) {
    sum += values[static_cast<size_t>(i)];
  }
  return sum / static_cast<double>(hi - lo + 1);
}

double MinOfK::Percentile(double q) const {
  std::vector<double> seen;
  for (double v : best_) {
    if (v != kUnset) {
      seen.push_back(v);
    }
  }
  return perfbench::Percentile(std::move(seen), q);
}

double MinOfK::Sum() const {
  double sum = 0;
  for (double v : best_) {
    if (v != kUnset) {
      sum += v;
    }
  }
  return sum;
}

void ExactCounts::Check(const std::string& key, uint64_t value) {
  auto [it, inserted] = values_.emplace(key, value);
  if (!inserted && it->second != value && mismatch_.empty()) {
    mismatch_ = key + ": " + std::to_string(it->second) + " in the first pass, " +
                std::to_string(value) + " in a later one";
  }
}

uint64_t ExactCounts::Get(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? 0 : it->second;
}

uint64_t ExactCounts::Digest() const {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (const auto& [key, value] : values_) {
    mix(key.data(), key.size());
    mix(&value, sizeof(value));
  }
  return hash;
}

int SpanRecorder::Begin(const char* name, int64_t unit, int parent) {
  spans_.push_back(Span{name, unit, parent, NowNs(), 0});
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::End(int span) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_ns = NowNs();
  return static_cast<double>(s.end_ns - s.start_ns);
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  // Children are strictly nested and never overlap one another, so the part
  // of a parent they cover is the sum of their durations.
  std::vector<double> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    double duration = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Totals& t = totals[spans_[i].name];
    t.total_ns += duration;
    t.self_ns += duration - covered[i];
    ++t.count;
  }
  return totals;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"unit\": %lld, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i, s.name, static_cast<long long>(s.unit), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "],\n\"self_time\": {\n");
  std::map<std::string, Totals> totals = Summarize();
  size_t n = 0;
  for (const auto& [name, t] : totals) {
    std::fprintf(out, "  \"%s\": {\"count\": %llu, \"total_ns\": %.0f, \"self_ns\": %.0f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(t.count), t.total_ns, t.self_ns,
                 ++n < totals.size() ? "," : "");
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_us", "us"},
    {"latency_tail_us", "us"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Must match "per_layer" in BENCHMARK.json.
constexpr CatalogEntry kPerLayer[] = {
    {"click.parse_us", "us"},
    {"symexec.build_ms", "ms"},
    {"symexec.build_outside_ms", "ms"},
    {"symexec.graph_nodes", "count"},
    {"symexec.check_ms", "ms"},
    {"symexec.engine_steps", "count"},
    {"symexec.us_per_step", "us"},
    {"policy.reach_ms", "ms"},
    {"controller.orchestrate_ms", "ms"},
    {"controller.kill_ms", "ms"},
    {"controller.reject_ms_p50", "ms"},
    {"controller.allocs_per_deploy", "count"},
    {"click.walk_ns", "ns"},
    {"platform.switch_ns", "ns"},
    {"obs.flight_ns", "ns"},
    {"obs.profiler_ns", "ns"},
    {"obs.int_ns", "ns"},
    {"click.allocs_per_pkt", "count"},
    {"platform.fastpath_miss_share", "ratio"},
    {"obs.sampled_walks", "count"},
    {"obs.int_postcards", "count"},
    {"obs.int_violations", "count"},
    {"row.bare_pkt_ns", "ns"},
    {"row.flight_pkt_ns", "ns"},
    {"row.profiler_pkt_ns", "ns"},
    {"row.int16_pkt_ns", "ns"},
    {"ratio.profiled_over_bare", "ratio"},
    {"ratio.int16_over_bare", "ratio"},
    {"ratio.platform_over_graph", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

}  // namespace

Report::Report(bool trace) {
  if (trace) {
    for (const CatalogEntry& entry : kPerLayer) {
      metrics_.push_back(Metric{entry.name, entry.unit, 0});
    }
  } else {
    for (const CatalogEntry& entry : kEndToEnd) {
      metrics_.push_back(Metric{entry.name, entry.unit, 0});
    }
  }
}

void Report::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0;
  }
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  Fail("metric " + name + " is not in this run's catalog");
}

void Report::Note(const std::string& label, double value, const std::string& unit) {
  notes_.push_back(Metric{label, unit, value});
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : notes_) {
    std::printf("  (%s) %*.6f %s\n", m.name.c_str(),
                static_cast<int>(std::max<size_t>(1, 48 - m.name.size())), m.value,
                m.unit.c_str());
  }
  std::printf("exact-count digest: %016llx\n", static_cast<unsigned long long>(counts_digest));
  for (const std::string& why : failures_) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

// Allocation counting for the exact allocs-per-operation metrics. Every form
// of operator new funnels through the two counted helpers above; the delete
// forms pair with malloc/aligned_alloc through free.
void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
