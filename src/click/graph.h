// Graph: an instantiated, wired, runnable Click configuration.
#ifndef SRC_CLICK_GRAPH_H_
#define SRC_CLICK_GRAPH_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/click/config_parser.h"
#include "src/click/element.h"
#include "src/click/profiler.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"

namespace innet::click {

// The one source/sink rule: packets enter a module at its FromNetfront
// elements and leave it at its ToNetfront ones, each under either of its
// registered names.
bool IsSourceClass(std::string_view class_name);
bool IsSinkClass(std::string_view class_name);

// Source/sink adapters sit outside the tenant's processing chain: they are
// excluded from canonical chains on BOTH sides of INT attestation (the
// runtime's element table and the symexec path digest both ask this), so the
// two can never disagree about where a path starts. Discard belongs here
// too: symbolically it never forwards, so it never appears in a path history.
bool IsEndpointClass(std::string_view class_name);

class Graph {
 public:
  // Instantiates every declared element through the registry, wires the
  // connections, and calls Initialize(). Returns nullptr and fills *error on
  // unknown classes, bad configurations, duplicate element names, or
  // out-of-range ports.
  static std::unique_ptr<Graph> Build(const ConfigGraph& config, std::string* error,
                                      sim::EventQueue* clock = nullptr);

  // Convenience: parse + build in one step.
  static std::unique_ptr<Graph> FromText(const std::string& text, std::string* error,
                                         sim::EventQueue* clock = nullptr);

  Element* Find(const std::string& name) const;
  // First element of the given class, or nullptr.
  Element* FindByClass(std::string_view class_name) const;
  template <typename T>
  T* FindAs(const std::string& name) const {
    return dynamic_cast<T*>(Find(name));
  }

  // Injects a packet at the named element (typically a FromNetfront).
  void Inject(const std::string& name, Packet& packet);
  // Injects at the first FromNetfront.
  void InjectAtSource(Packet& packet);

  // Indexed by Element::id().
  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }
  // Element names, tenant slots and endpoint flags by element id, resolved
  // once at build time; shared with the profiler and every INT postcard the
  // graph stamps.
  const std::shared_ptr<const obs::ElementNameTable>& element_names() const { return names_; }

  // Snapshots every element's packet/byte/drop/proc-time counters (and
  // per-output-port packet counts) into `registry` as innet_element_*_total
  // counters labeled `base_labels` + {element, class} (Click read handlers,
  // exported Prometheus-style). With `slot_tenants` (a consolidated guest's
  // tenants in merge order), each element's labels also carry "tenant"
  // before "element": the tenant of its t<i>_ slot, or "" for shared glue.
  void ExportMetrics(obs::MetricsRegistry* registry, const obs::Labels& base_labels = {},
                     const std::vector<std::string>* slot_tenants = nullptr) const;

  // Attaches a GraphProfiler (replacing any previous one): folded-stack
  // attribution for every packet, 1-in-N walk sampling per `config`. The
  // profiler belongs to the graph and is visible to elements through their
  // context.
  GraphProfiler* EnableProfiling(GraphProfilerConfig config);
  // Calls `hook` for every inter-element forward in this graph (null
  // detaches it).
  void SetPacketTrace(PacketTraceHook hook) { context_.trace = std::move(hook); }
  GraphProfiler* profiler() const { return profiler_.get(); }
  // Appends this graph's folded chains ("prefix;a;b;c weight" lines) to
  // `out`; no-op when profiling is off.
  void WriteFolded(std::ostream& out) const;

 private:
  Graph() = default;

  // Pushes `packet` into `element`'s input 0; with a profiler attached, the
  // push is one profiled walk.
  void InjectAt(Element& element, Packet& packet);

  std::vector<std::unique_ptr<Element>> elements_;
  std::shared_ptr<const obs::ElementNameTable> names_;
  std::unordered_map<std::string, Element*> by_name_;
  Element* default_source_ = nullptr;
  ElementContext context_;
  std::unique_ptr<GraphProfiler> profiler_;
};

}  // namespace innet::click

#endif  // SRC_CLICK_GRAPH_H_
