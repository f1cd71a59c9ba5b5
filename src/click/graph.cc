#include "src/click/graph.h"

#include <set>
#include <string_view>

namespace innet::click {
namespace {

// Source/sink adapters sit outside the tenant's processing chain: they are
// excluded from canonical chains on BOTH sides of attestation (the symexec
// digest filters the same class set — see src/symexec/path_digest.cc), so
// the two can never disagree about where a path starts. Discard belongs here
// too: symbolically it never forwards, so it never appears in a path history.
bool IsEndpointClass(std::string_view class_name) {
  return class_name == "FromNetfront" || class_name == "ToNetfront" ||
         class_name == "FromDevice" || class_name == "ToDevice" || class_name == "Discard";
}

// Fills the consolidated-tenant slot of a "t<i>_"-prefixed element name (the
// prefix ConsolidateTenants gives each tenant's elements) and, when the
// prefix is spelled exactly "t<slot>_", its length.
void ParseTenantPrefix(std::string_view name, obs::ElementNameTable::Entry* entry) {
  constexpr size_t kMaxDigits = 9;  // keeps the slot within int
  if (name.size() < 3 || name[0] != 't') {
    return;
  }
  size_t i = 1;
  int slot = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    if (i > kMaxDigits) {
      return;
    }
    slot = slot * 10 + (name[i] - '0');
    ++i;
  }
  if (i == 1 || i >= name.size() || name[i] != '_') {
    return;
  }
  entry->tenant_slot = slot;
  if (name[1] != '0' || i == 2) {
    entry->prefix_len = static_cast<uint32_t>(i + 1);
  }
}

}  // namespace

std::unique_ptr<Graph> Graph::Build(const ConfigGraph& config, std::string* error,
                                    const Registry& registry, sim::EventQueue* clock) {
  auto graph = std::unique_ptr<Graph>(new Graph());
  graph->config_ = config;
  graph->context_.clock = clock;

  auto names = std::make_shared<obs::ElementNameTable>();
  std::set<int> tenant_slots;
  for (const ElementDecl& decl : config.elements) {
    std::unique_ptr<Element> element = registry.Create(decl.class_name, decl.args, error);
    if (element == nullptr) {
      *error = "element '" + decl.name + "': " + *error;
      return nullptr;
    }
    element->set_name(decl.name);
    element->set_id(static_cast<uint32_t>(graph->elements_.size()));
    obs::ElementNameTable::Entry& entry = names->elements.emplace_back();
    entry.name = decl.name;
    entry.endpoint = IsEndpointClass(element->class_name());
    ParseTenantPrefix(decl.name, &entry);
    if (entry.tenant_slot >= 0) {
      tenant_slots.insert(entry.tenant_slot);
    }
    graph->by_name_[decl.name] = element.get();
    if (graph->default_source_ == nullptr && element->class_name() == "FromNetfront") {
      graph->default_source_ = element.get();
    }
    graph->elements_.push_back(std::move(element));
  }
  names->tenant_slots.assign(tenant_slots.begin(), tenant_slots.end());
  graph->names_ = std::move(names);

  for (const Connection& conn : config.connections) {
    Element* from = graph->Find(conn.from);
    Element* to = graph->Find(conn.to);
    if (from == nullptr || to == nullptr) {
      *error = "connection references unknown element '" +
               (from == nullptr ? conn.from : conn.to) + "'";
      return nullptr;
    }
    if (conn.from_port < 0 || conn.from_port >= from->n_outputs()) {
      *error = "output port " + std::to_string(conn.from_port) + " out of range on '" +
               conn.from + "' (" + std::to_string(from->n_outputs()) + " outputs)";
      return nullptr;
    }
    if (conn.to_port < 0 || conn.to_port >= to->n_inputs()) {
      *error = "input port " + std::to_string(conn.to_port) + " out of range on '" + conn.to +
               "' (" + std::to_string(to->n_inputs()) + " inputs)";
      return nullptr;
    }
    from->ConnectOutput(conn.from_port, to, conn.to_port);
  }

  for (auto& element : graph->elements_) {
    element->Initialize(&graph->context_);
  }
  return graph;
}

std::unique_ptr<Graph> Graph::FromText(const std::string& text, std::string* error,
                                       sim::EventQueue* clock) {
  auto config = ConfigGraph::Parse(text, error);
  if (!config) {
    return nullptr;
  }
  return Build(*config, error, Registry::Global(), clock);
}

Element* Graph::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Element* Graph::FindByClass(std::string_view class_name) const {
  for (const auto& element : elements_) {
    if (element->class_name() == class_name) {
      return element.get();
    }
  }
  return nullptr;
}

void Graph::Inject(const std::string& name, Packet& packet) {
  if (Element* element = Find(name)) {
    InjectAt(*element, packet);
  }
}

void Graph::InjectAtSource(Packet& packet) {
  if (default_source_ != nullptr) {
    InjectAt(*default_source_, packet);
  }
}

void Graph::InjectAt(Element& element, Packet& packet) {
  element.CountArrival(packet);
  if (profiler_ == nullptr) {
    element.Push(0, packet);
    return;
  }
  uint64_t now_ns = context_.clock != nullptr ? context_.clock->now() : 0;
  profiler_->BeginWalk(now_ns, packet);
  profiler_->EnterElement(element, packet);
  element.Push(0, packet);
  profiler_->ExitElement();
  profiler_->EndWalk();
  profiler_->FinishWalkInt(packet, now_ns);
}

void Graph::ExportMetrics(obs::MetricsRegistry* registry, const obs::Labels& base_labels) const {
  for (const auto& element : elements_) {
    obs::Labels labels = base_labels;
    labels.emplace_back("element", element->name());
    labels.emplace_back("class", std::string(element->class_name()));
    registry->GetCounter("innet_element_packets_total", labels)->SetTo(element->packets());
    registry->GetCounter("innet_element_bytes_total", labels)->SetTo(element->bytes());
    registry->GetCounter("innet_element_drops_total", labels)->SetTo(element->drops());
    registry->GetCounter("innet_element_proc_ns_total", labels)->SetTo(element->proc_ns());
    for (int port = 0; port < element->n_outputs(); ++port) {
      obs::Labels port_labels = labels;
      port_labels.emplace_back("port", std::to_string(port));
      registry->GetCounter("innet_element_port_packets_total", port_labels)
          ->SetTo(element->port_packets(port));
    }
  }
  if (profiler_ != nullptr) {
    profiler_->ExportMetrics(registry, base_labels);
  }
}

GraphProfiler* Graph::EnableProfiling(GraphProfilerConfig config) {
  profiler_ = std::make_unique<GraphProfiler>(std::move(config), names_);
  context_.profiler = profiler_.get();
  return profiler_.get();
}

void Graph::WriteFolded(std::ostream& out) const {
  if (profiler_ != nullptr) {
    profiler_->WriteFolded(out);
  }
}

}  // namespace innet::click
