// In-band telemetry (INT) collection + runtime path-conformance attestation.
//
// Sampled packets carry a per-hop metadata stack (src/netcore/packet.h); the
// GraphProfiler completes each stack into an IntPostcard at egress or drop
// and hands it here. The collector folds postcards into:
//
//   1. Per-chain latency heatmaps — for every (tenant, canonical element
//      chain) the count / total / min / max of observed path latency, plus
//      live registry instruments (innet_int_hop_ns_total{element},
//      innet_int_path_latency_ns{tenant}) so TimeSeriesSampler windows see
//      INT traffic like any other signal.
//
//   2. Attestation — each observed chain is checked against the IntPathDigest
//      SymNet produced at verify time (src/symexec/path_digest.h): delivered
//      packets must match a complete verified path exactly, dropped packets
//      must match a verified path *prefix* (queues and meters are modeled as
//      pass-through symbolically, so a runtime tail-drop legitimately ends a
//      verified path early). A mismatch raises
//      innet_path_conformance_violations_total{tenant}, a path_violation
//      trace event, and HealthMonitor::CountPathViolation — so Rebalance()
//      and the watchdog steer non-conformant tenants like any SLO breach.
//
// Determinism: postcards carry only sim-clock times and deterministic cost
// sums; all aggregation lives in sorted maps; ToJson is a pure function of
// the postcards folded. Disabled by default (like the tracer): sampling is
// only armed when a collector is enabled, so the fast path pays one branch.
#ifndef SRC_OBS_INT_TELEMETRY_H_
#define SRC_OBS_INT_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace innet::obs {

// FNV-1a 64 over the ';'-joined chain — the one hash both the verify-time
// digest and the runtime attestation use, so they can never disagree on
// canonical form. HashChainText takes the chain already joined.
uint64_t HashChain(const std::vector<std::string>& chain);
uint64_t HashChainText(std::string_view joined);

// Compact per-tenant path digest exported by symexec at verify time, stored
// in the deploy journal, and carried through migration. Two hash sets: full
// delivered paths (egress postcards must match exactly) and every prefix of
// every path (drop postcards must match one — the empty prefix is always
// present, so a packet dropped before reaching any tenant element is
// conformant).
struct IntPathDigest {
  std::vector<uint64_t> full_paths;  // sorted, deduplicated
  std::vector<uint64_t> prefixes;    // sorted, deduplicated
  // Symbolic execution hit its path/hop budget: the sets are incomplete, so
  // attestation must be skipped rather than flag false violations.
  bool truncated = false;

  bool empty() const { return full_paths.empty() && prefixes.empty() && !truncated; }
  bool MatchesFull(uint64_t hash) const;
  bool MatchesPrefix(uint64_t hash) const;

  // Stable text form ("intd1:<t|c>:<hex,...>:<hex,...>") for the deploy
  // journal and migration payloads. Decode rejects anything malformed.
  std::string Encode() const;
  static bool Decode(const std::string& text, IntPathDigest* out);
};

// Names of one graph's elements, indexed by the dense element id
// Graph::Build assigns. Built once per graph and shared (by shared_ptr) with
// every postcard and recent-postcard entry the graph stamps, so postcards
// still render after the graph is torn down (migration, crash bundles).
class ElementNameTable {
 public:
  struct Entry {
    std::string name;
    // Consolidated-tenant slot parsed from a "t<i>_" name prefix; -1 when
    // the name is not prefixed.
    int tenant_slot = -1;
    // Length of the prefix when it is spelled exactly "t<slot>_" (the form
    // canonical chains strip); 0 otherwise.
    uint32_t prefix_len = 0;
    // Source/sink adapter class, outside the tenant's processing chain.
    bool endpoint = false;
  };

  std::vector<Entry> elements;
  // Distinct tenant slots named by `elements`, ascending.
  std::vector<int> tenant_slots;

 private:
  friend class IntCollector;
  // innet_int_hop_ns_total{element} per element id, resolved in
  // `hop_registry` the first time a folded hop names the element.
  mutable MetricsRegistry* hop_registry_ = nullptr;
  mutable std::vector<Counter*> hop_counters_;
};

// One hop of a completed postcard (mirrors innet::IntHop, decoupled so obs
// has no netcore dependency).
struct IntPostcardHop {
  uint32_t element = 0;  // id in the postcard's name table
  uint16_t ingress_port = 0;
  uint16_t egress_port = 0;
  uint32_t queue_depth = 0;
  bool endpoint = false;
  uint64_t hop_ns = 0;
};

// A completed postcard as handed to Fold: a view over the stamping
// profiler's stack-local state, valid for the duration of the call.
struct IntPostcard {
  std::shared_ptr<const ElementNameTable> names;  // resolves element ids
  std::string_view tenant;  // "" = unattributable (no owner, no prefixed elements)
  std::string_view vm;      // graph identity, e.g. "vm:3"
  std::span<const IntPostcardHop> hops;  // full observed sequence, in order
  // Canonical tenant-interior chain, as element ids. With `strip_prefix`,
  // each name is rendered without its "t<i>_" prefix.
  std::span<const uint32_t> chain;
  bool strip_prefix = false;
  uint64_t path_ns = 0;         // queue wait + summed hop costs
  uint64_t truncated_hops = 0;  // hops beyond the in-band stack budget
  bool egress = false;          // delivered (true) vs dropped (false)
};

class IntCollector {
 public:
  explicit IntCollector(MetricsRegistry* registry = &MetricsRegistry::Global())
      : registry_(registry) {}
  IntCollector(const IntCollector&) = delete;
  IntCollector& operator=(const IntCollector&) = delete;

  void Enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // --- Digest registry (fed by the orchestrator at placement time) ----------
  // A tenant may be registered under several keys (client id and module
  // address) because dataplane attribution and control-plane bookkeeping
  // name tenants differently; registering twice is idempotent.
  void SetTenantDigest(const std::string& tenant, const IntPathDigest& digest);
  void ClearTenantDigest(const std::string& tenant);
  bool HasTenantDigest(const std::string& tenant) const;

  // Folds one completed postcard: heatmap row, live metrics, attestation.
  // Registry instruments are resolved once per element, tenant and status
  // and the recent-postcard line is rendered only when read, so a fold that
  // sees no new tenant, chain or element allocates nothing.
  void Fold(const IntPostcard& postcard);

  uint64_t postcards() const { return postcards_; }
  uint64_t violations() const { return violations_; }
  uint64_t TenantViolations(const std::string& tenant) const;
  // tenant -> cumulative violation count, sorted (federation digests sum a
  // region's own tenants from this, never the process-wide registry).
  const std::map<std::string, uint64_t>& tenant_violations() const { return tenant_violations_; }

  // Last-K one-line postcard renderings, oldest first — captured into
  // flight-recorder postmortem bundles so a crash dump shows the packet
  // journeys that preceded it.
  std::vector<std::string> RecentPostcards() const;

  // {"postcards", "violations", "status", "tenants": [per-tenant heatmap +
  // attestation], "recent"} — sorted and byte-deterministic.
  json::Value ToJson() const;
  bool WriteJsonFile(const std::string& path) const;

  // Forgets postcards, digests, and counters (registry instruments persist).
  void Clear();

  // The process-wide collector used by all built-in instrumentation.
  static IntCollector& Global();

 private:
  // Postcard outcome, in the (alphabetical) order ToJson lists statuses.
  enum Status : size_t { kDrop, kEgress, kUnattested, kUnattributed, kStatusCount };

  struct ChainStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t min_ns = 0;
    uint64_t max_ns = 0;
    uint64_t violations = 0;
    bool egress = false;  // any delivered postcard took this chain
  };
  // One observed tenant: its latency histogram (resolved once) and its
  // canonical chain text -> latency/violation stats.
  struct TenantPaths {
    Histogram* latency = nullptr;
    std::map<std::string, ChainStats, std::less<>> rows;
  };
  // One recent-postcard line, kept unrendered until it is read.
  struct RecentPostcard {
    std::shared_ptr<const ElementNameTable> names;
    std::string tenant;
    std::string vm;
    std::vector<uint32_t> chain;
    bool strip_prefix = false;
    Status status = kDrop;
    uint64_t path_ns = 0;
    bool violation = false;
  };

  Counter* HopCounter(const ElementNameTable& names, uint32_t element);
  void CountStatus(Status status);
  void Remember(const IntPostcard& postcard, Status status, bool violation);
  std::string RenderRecent(const RecentPostcard& recent) const;

  bool enabled_ = false;
  MetricsRegistry* registry_;
  uint64_t postcards_ = 0;
  uint64_t violations_ = 0;
  std::map<std::string, IntPathDigest, std::less<>> digests_;
  std::array<uint64_t, kStatusCount> status_counts_{};
  std::array<Counter*, kStatusCount> status_counters_{};
  Counter* truncated_counter_ = nullptr;
  std::map<std::string, uint64_t> tenant_violations_;
  std::map<std::string, TenantPaths, std::less<>> chains_;
  // Ring of the last kRecentDepth postcards; recent_next_ is the oldest
  // entry, which the next postcard overwrites once the ring is full.
  static constexpr size_t kRecentDepth = 8;
  std::vector<RecentPostcard> recent_;
  size_t recent_next_ = 0;
  std::string chain_text_;  // canonical chain of the postcard being folded
};

// Shorthand for the global collector.
inline IntCollector& Int() { return IntCollector::Global(); }

}  // namespace innet::obs

#endif  // SRC_OBS_INT_TELEMETRY_H_
