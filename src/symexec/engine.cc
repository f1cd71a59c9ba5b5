#include "src/symexec/engine.h"

#include <deque>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::symexec {

int SymGraph::AddNode(const std::string& name, std::shared_ptr<SymbolicModel> model) {
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{name, std::move(model), {}});
  by_name_[name] = id;
  return id;
}

void SymGraph::Connect(int from, int out_port, int to, int in_port) {
  nodes_[static_cast<size_t>(from)].edges[out_port] = {to, in_port};
}

bool SymGraph::ConnectByName(const std::string& from, int out_port, const std::string& to,
                             int in_port) {
  int f = FindNode(from);
  int t = FindNode(to);
  if (f < 0 || t < 0) {
    return false;
  }
  Connect(f, out_port, t, in_port);
  return true;
}

int SymGraph::FindNode(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

int SymGraph::Merge(const SymGraph& other, const std::string& prefix) {
  int offset = static_cast<int>(nodes_.size());
  for (const Node& node : other.nodes_) {
    AddNode(prefix + "/" + node.name, node.model);
  }
  for (size_t i = 0; i < other.nodes_.size(); ++i) {
    for (const auto& [out_port, target] : other.nodes_[i].edges) {
      Connect(offset + static_cast<int>(i), out_port, offset + target.first, target.second);
    }
  }
  return offset;
}

EngineResult Engine::Run(const SymGraph& graph, int start, int in_port, SymbolicPacket seed) {
  EngineResult result;
  if (start < 0 || static_cast<size_t>(start) >= graph.nodes_.size()) {
    return result;
  }

  struct WorkItem {
    int node;
    int in_port;
    SymbolicPacket packet;
  };
  std::deque<WorkItem> work;
  work.push_back({start, in_port, std::move(seed)});
  ModelContext ctx{&vars_};

  size_t paths = 0;
  while (!work.empty()) {
    WorkItem item = std::move(work.front());
    work.pop_front();
    if (item.packet.hop_count() >= options_.max_hops) {
      result.truncated = true;
      continue;
    }
    if (++paths > static_cast<size_t>(options_.max_paths)) {
      result.truncated = true;
      break;
    }

    const SymGraph::Node& node = graph.nodes_[static_cast<size_t>(item.node)];
    std::vector<Transition> transitions = node.model->Apply(&ctx, item.packet, item.in_port);
    ++result.steps;

    if (transitions.empty()) {
      item.packet.RecordHop(node.name, 0);
      result.dropped.push_back(std::move(item.packet));
      continue;
    }
    for (Transition& t : transitions) {
      if (!t.packet.feasible()) {
        continue;
      }
      t.packet.RecordHop(node.name, t.out_port);
      if (t.out_port == kPortDeliver) {
        t.packet.set_delivered_at(node.name);
        result.delivered.push_back(std::move(t.packet));
        continue;
      }
      auto edge = node.edges.find(t.out_port);
      if (edge == node.edges.end()) {
        result.dropped.push_back(std::move(t.packet));
        continue;
      }
      work.push_back({edge->second.first, edge->second.second, std::move(t.packet)});
    }
  }

  auto& registry = obs::Registry();
  registry.GetCounter("innet_symexec_runs_total")->Increment();
  registry.GetCounter("innet_symexec_steps_total")->Increment(result.steps);
  if (result.truncated) {
    registry.GetCounter("innet_symexec_truncated_total")->Increment();
  }
  size_t explored = result.delivered.size() + result.dropped.size();
  registry
      .GetHistogram("innet_symexec_paths_explored", {}, obs::ExponentialBuckets(1.0, 4.0, 10))
      ->Observe(static_cast<double>(explored));
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kSymexecRun,
                            "node:" + graph.NodeName(start),
                            "steps=" + std::to_string(result.steps) +
                                (result.truncated ? " truncated" : ""),
                            static_cast<int64_t>(explored));
  }
  return result;
}

}  // namespace innet::symexec
