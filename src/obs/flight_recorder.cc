#include "src/obs/flight_recorder.h"

#include <utility>

#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"

namespace innet::obs {

void FlightRecorder::set_depth(size_t depth) {
  depth_ = depth == 0 ? 1 : depth;
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
}

void FlightRecorder::Record(uint64_t time_ns, EventKind kind, EventText target,
                            EventText detail, int64_t value) {
  ++recorded_;
  FlightEvent event{time_ns, kind, std::move(target), std::move(detail), value};
  if (ring_.size() < depth_) {
    ring_.push_back(std::move(event));
    head_ = ring_.size() % depth_;
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % depth_;
}

std::vector<FlightEvent> FlightRecorder::RecentEvents() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < depth_) {
    out = ring_;  // never wrapped: stored in order
    return out;
  }
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % depth_]);
  }
  return out;
}

void FlightRecorder::SnapshotPostmortem(PostmortemBundle bundle) {
  bundle.events = RecentEvents();
  if (Int().enabled()) {
    bundle.postcards = Int().RecentPostcards();
  }
  last_snapshot_[bundle.target] = evicted_ + postmortems_.size();
  postmortems_.push_back(std::move(bundle));
  if (postmortems_.size() > max_postmortems_) {
    postmortems_.pop_front();
    ++evicted_;
  }
}

void FlightRecorder::NotePeriodicElements(const std::string& target,
                                          std::vector<ElementCounterDelta> elements) {
  if (elements.empty()) {
    return;  // an empty capture would shadow nothing useful
  }
  periodic_elements_[target] = std::move(elements);
}

const std::vector<ElementCounterDelta>* FlightRecorder::LastElementsFor(
    const std::string& target) const {
  auto it = last_snapshot_.find(target);
  if (it != last_snapshot_.end() && it->second >= evicted_) {
    const std::vector<ElementCounterDelta>& elements =
        postmortems_[static_cast<size_t>(it->second - evicted_)].elements;
    if (!elements.empty()) {
      return &elements;
    }
  }
  // No usable bundle (never snapshotted, aged out, or captured nothing):
  // fall back to the last periodic capture from the platform sweep.
  auto periodic = periodic_elements_.find(target);
  return periodic == periodic_elements_.end() ? nullptr : &periodic->second;
}

void FlightRecorder::Clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  evicted_ = 0;
  postmortems_.clear();
  last_snapshot_.clear();
  periodic_elements_.clear();
}

json::Value FlightRecorder::ToJson() const {
  json::Value bundles = json::Value::Array();
  for (const PostmortemBundle& bundle : postmortems_) {
    json::Value entry = json::Value::Object();
    entry.Set("t_ns", bundle.time_ns);
    entry.Set("trigger", EventKindName(bundle.trigger));
    entry.Set("target", bundle.target);
    entry.Set("tenant", bundle.tenant);
    if (!bundle.detail.empty()) {
      entry.Set("detail", bundle.detail);
    }
    entry.Set("span", bundle.span);
    if (!bundle.health.empty()) {
      entry.Set("health", bundle.health);
    }
    json::Value elements = json::Value::Array();
    for (const ElementCounterDelta& delta : bundle.elements) {
      json::Value element = json::Value::Object();
      element.Set("element", delta.element);
      element.Set("class", delta.element_class);
      element.Set("packets", delta.packets);
      element.Set("bytes", delta.bytes);
      element.Set("drops", delta.drops);
      element.Set("proc_ns", delta.proc_ns);
      elements.Push(std::move(element));
    }
    entry.Set("elements", std::move(elements));
    json::Value events = json::Value::Array();
    for (const FlightEvent& event : bundle.events) {
      json::Value item = json::Value::Object();
      item.Set("t_ns", event.time_ns);
      item.Set("kind", EventKindName(event.kind));
      item.Set("target", event.target.str());
      if (!event.detail.empty()) {
        item.Set("detail", event.detail.str());
      }
      item.Set("value", event.value);
      events.Push(std::move(item));
    }
    entry.Set("events", std::move(events));
    if (!bundle.postcards.empty()) {
      json::Value postcards = json::Value::Array();
      for (const std::string& line : bundle.postcards) {
        postcards.Push(line);
      }
      entry.Set("postcards", std::move(postcards));
    }
    bundles.Push(std::move(entry));
  }
  json::Value root = json::Value::Object();
  root.Set("depth", static_cast<uint64_t>(depth_));
  root.Set("recorded", recorded_);
  root.Set("evicted", evicted_);
  root.Set("postmortems", std::move(bundles));
  return root;
}

bool FlightRecorder::WriteJsonFile(const std::string& path) const {
  return ToJson().WriteFile(path);
}

void FlightRecorder::ExportMetrics(MetricsRegistry* registry) const {
  registry->GetCounter("innet_flight_events_recorded_total")->SetTo(recorded_);
  registry->GetCounter("innet_flight_postmortems_total")
      ->SetTo(evicted_ + static_cast<uint64_t>(postmortems_.size()));
}

}  // namespace innet::obs
