// Shared machinery of the wall-clock benchmark driver: the min-of-k
// estimator, exact-count equivalence checks, the in-memory span recorder of
// the traced run, and the result report.
//
// Why min-of-k: on a small shared VM the same code runs at speeds that swing
// by up to 1.7x in phases lasting seconds, so a plain median or tail of one
// run mostly measures the host. Each workload therefore replays one fixed,
// seeded sequence k times (a "pass"); every timed unit (a request index, a
// packet index, or a block of packets) keeps its fastest time over the
// passes, and percentiles are taken across units. Passes must do equivalent
// work, which ExactCounts checks: any count that differs between passes
// fails the run, because the minimum would then compare unlike work.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans ("" = not written).
  std::string trace_out;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Allocations made by this thread so far (operator new is replaced in
// common.cc; the counter is a plain thread-local increment).
uint64_t AllocCount();

// Peak resident set size of the process so far, in MB (VmHWM). Workloads
// read it after set-up and the first pass: later passes grow the deploy
// journal (it never compacts), so a reading at exit would rise with the
// number of passes, that is, with speed.
double PeakRssMb();

// Percentile q (in [0, 1]) of `values`, smoothed: the mean of the order
// statistics within +-0.5% of the ranks (at least one rank either side)
// around q. Timings are whole nanoseconds, and a bare order statistic of
// per-unit minima would often repeat to the nanosecond across runs; the
// smoothing keeps the estimate continuous. 0 when empty.
double Percentile(std::vector<double> values, double q);

// Fastest observation per timed unit.
class MinOfK {
 public:
  explicit MinOfK(size_t units = 0) : best_(units, kUnset) {}
  void Note(size_t unit, double value) {
    if (value < best_[unit]) {
      best_[unit] = value;
    }
  }
  // Percentile across the units that have at least one observation.
  double Percentile(double q) const;
  double Sum() const;

 private:
  static constexpr double kUnset = std::numeric_limits<double>::infinity();
  std::vector<double> best_;
};

// Counts that must repeat exactly in every pass of one kind. The first pass
// of a kind sets the reference; a later pass that differs is recorded as a
// mismatch and fails the run.
class ExactCounts {
 public:
  void Check(const std::string& key, uint64_t value);
  bool ok() const { return mismatch_.empty(); }
  const std::string& mismatch() const { return mismatch_; }
  uint64_t Get(const std::string& key) const;
  // FNV-1a over every (key, value): compared across runs of one seed.
  uint64_t Digest() const;

 private:
  std::map<std::string, uint64_t> values_;
  std::string mismatch_;
};

// Spans of the traced run, kept in memory and written out at exit. A span
// covers one public call (or one block of calls) made by the driver.
class SpanRecorder {
 public:
  // Opens a span; `parent` is the index returned by an enclosing Begin, or
  // -1. `unit` is the request index or block id the span belongs to.
  int Begin(const char* name, int64_t unit, int parent = -1);
  // Closes the span and returns its duration in ns.
  double End(int span);
  // Per span name: total duration and self time (duration minus the part
  // covered by child spans), in ns.
  struct Totals {
    double total_ns = 0;
    double self_ns = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t unit;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

// Result of one run. The metric names and units come from a fixed catalog
// (end-to-end for untraced runs, per-layer for traced ones) that matches
// BENCHMARK.json, so every workload prints every metric; a layer the workload
// does not exercise reads 0. The last stdout line is the JSON object the
// harness reads.
class Report {
 public:
  explicit Report(bool trace);
  // Sets a catalog metric (a name outside the catalog is a programming error
  // and fails the run).
  void Set(const std::string& name, double value);
  // An extra line of the human-readable table only (e.g. the same figure
  // under its workload-specific name).
  void Note(const std::string& label, double value, const std::string& unit);
  // A correctness failure; the run exits non-zero.
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // ExactCounts::Digest of the run, compared across runs of one seed.
  uint64_t counts_digest = 0;

  // Table (stdout), failures (stderr), then the JSON line (stdout).
  void Print() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> failures_;
};

// Runs until `seconds` have passed since construction.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)) {}
  bool passed() const { return NowNs() >= end_ns_; }

 private:
  int64_t end_ns_;
};

// setup_s is the fastest of kFreshSetups set-ups per run: the first one is
// kept for the measurement, the others are built and dropped at even
// intervals over the run, so their minimum is not hostage to one slow phase
// of the host. Every workload's set-up takes well under a second: 64 of them
// cost about 1.5 s of a 25 s run. In five deploy_churn runs, the fastest of
// the first 16 ranged 18-30 ms and the fastest of all 64 17-20.5 ms.
constexpr int kFreshSetups = 64;

// True when the next fresh set-up is due, `done` set-ups and `elapsed_ns`
// into a run of `seconds`.
inline bool FreshSetupDue(int done, int64_t elapsed_ns, double seconds) {
  return done < kFreshSetups && static_cast<double>(elapsed_ns) / 1e9 / seconds >=
                                    static_cast<double>(done) / kFreshSetups;
}

int RunControl(const Options& options, Report* report);
int RunDataplane(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
