// FlightRecorder: an always-on, bounded ring of recent dataplane and
// lifecycle events, plus the post-mortem bundles snapshotted from it when
// something dies.
//
// The EventTracer is opt-in and unbounded-ish (meant for offline analysis of
// a whole run); the flight recorder is the opposite trade: always recording,
// O(1) per event, fixed memory, and only ever read *backwards* — "what were
// the last K things that happened before this VM crashed?". On a trigger
// (kVmCrash, kWatchdogGiveUp, kMigrateAbort) the owner snapshots a
// PostmortemBundle: the ring's current contents, the dying graph's
// per-element counters, the owning span id, and the tenant's health state at
// that instant. Bundles are dumped as JSON and rendered by
// `innet_top --postmortem`.
//
// Determinism: events are stamped with caller-provided sim time only; the
// ring and every bundle are pure functions of the event sequence, so dumps
// stay byte-identical across seeded runs.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace innet::obs {

class MetricsRegistry;

// One entry in the ring. Reuses EventKind so wire names stay in one place.
struct FlightEvent {
  uint64_t time_ns = 0;
  EventKind kind = EventKind::kVmBootStart;
  EventText target;
  EventText detail;
  int64_t value = 0;
};

// A dying graph's per-element counters, captured at snapshot time. Deltas
// are since VM (re)start — element counters reset when a graph is rebuilt.
struct ElementCounterDelta {
  std::string element;
  std::string element_class;
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t drops = 0;
  uint64_t proc_ns = 0;
};

struct PostmortemBundle {
  uint64_t time_ns = 0;
  EventKind trigger = EventKind::kVmCrash;
  std::string target;  // e.g. "vm:3"
  std::string tenant;  // owning tenant address, if known
  std::string detail;  // free-form qualifier from the trigger site
  uint64_t span = 0;   // the dying VM's owning span id (0 = none)
  std::string health;  // tenant health state name at snapshot ("" = monitor off)
  std::vector<ElementCounterDelta> elements;
  std::vector<FlightEvent> events;  // filled from the ring by SnapshotPostmortem
  // Last in-band telemetry postcards folded before the trigger (filled by
  // SnapshotPostmortem from the global IntCollector when it is enabled), so
  // a crash bundle shows the packet journeys that preceded it.
  std::vector<std::string> postcards;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Ring depth (last-K). Resizing drops the current contents; configure once
  // at startup (innet_run --flight-recorder-depth).
  void set_depth(size_t depth);
  size_t depth() const { return depth_; }

  // O(1), and no allocation once the ring is full: the texts are shared,
  // so a hot caller records a text it built once (a VM's "vm:<id>").
  // Always on.
  void Record(uint64_t time_ns, EventKind kind, EventText target, EventText detail = {},
              int64_t value = 0);

  // Ring contents, oldest first.
  std::vector<FlightEvent> RecentEvents() const;

  // Freezes `bundle.events` from the ring and stores the bundle. Also
  // remembers the bundle's element deltas per target, so a later trigger for
  // the same target (e.g. watchdog give-up after the crash already destroyed
  // the graph) can reuse them via LastElementsFor. At most
  // `max_postmortems()` bundles are kept; the oldest are evicted (and
  // counted), so a crash storm stays bounded like the ring itself.
  void SnapshotPostmortem(PostmortemBundle bundle);

  void set_max_postmortems(size_t cap) { max_postmortems_ = cap == 0 ? 1 : cap; }
  size_t max_postmortems() const { return max_postmortems_; }
  uint64_t evicted_postmortems() const { return evicted_; }

  const std::deque<PostmortemBundle>& postmortems() const { return postmortems_; }

  // Periodic element-counter capture: the platform calls this from its
  // regular sweep (watchdog cadence) for every live graph, so a later
  // postmortem for a target whose graph is already torn down can fall back
  // to the last periodic capture instead of reporting nothing. Overwrites
  // the previous capture for the target — only the newest matters.
  void NotePeriodicElements(const std::string& target, std::vector<ElementCounterDelta> elements);
  size_t periodic_targets() const { return periodic_elements_.size(); }

  // Element deltas from the most recent snapshot for `target`: a prior
  // postmortem bundle if one survives, else the last periodic capture;
  // nullptr when neither exists.
  const std::vector<ElementCounterDelta>* LastElementsFor(const std::string& target) const;

  uint64_t recorded() const { return recorded_; }

  void Clear();

  // {"depth": K, "recorded": N, "postmortems": [...]}. Bundle events use the
  // same {t_ns, kind, target, detail, value} field names as the trace dump.
  json::Value ToJson() const;
  bool WriteJsonFile(const std::string& path) const;

  // innet_flight_events_recorded_total / innet_flight_postmortems_total.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  size_t depth_ = 256;
  uint64_t recorded_ = 0;
  std::vector<FlightEvent> ring_;  // ring_[i % depth_], overwritten in place
  size_t head_ = 0;                // next slot to write
  size_t max_postmortems_ = 64;
  uint64_t evicted_ = 0;  // bundles aged out of the front of postmortems_
  std::deque<PostmortemBundle> postmortems_;
  std::map<std::string, uint64_t> last_snapshot_;  // target -> absolute index
  // target -> last periodic element capture (see NotePeriodicElements).
  std::map<std::string, std::vector<ElementCounterDelta>> periodic_elements_;
};

}  // namespace innet::obs

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
