#include "src/symexec/engine.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::symexec {

NameTable& SymGraph::MutableNames() {
  if (names_ == nullptr) {
    names_ = std::make_shared<NameTable>();
  } else if (names_.use_count() > 1) {
    names_ = std::make_shared<NameTable>(*names_);
  }
  return *names_;
}

int SymGraph::AddNode(const std::string& name, std::shared_ptr<SymbolicModel> model) {
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{std::move(model), {}, {}});
  MutableNames().push_back(name);
  return id;
}

void SymGraph::Reserve(size_t nodes) {
  nodes_.reserve(nodes);
  MutableNames().reserve(nodes);
}

void SymGraph::Connect(int from, int out_port, int to, int in_port) {
  Node& node = nodes_[static_cast<size_t>(from)];
  size_t port = static_cast<size_t>(out_port);
  if (port < kInlineEdges) {
    node.edges[port] = {to, in_port};
    return;
  }
  if (port - kInlineEdges >= node.more_edges.size()) {
    node.more_edges.resize(port - kInlineEdges + 1);
  }
  node.more_edges[port - kInlineEdges] = {to, in_port};
}

const SymGraph::Edge* SymGraph::Node::EdgeAt(int out_port) const {
  if (out_port < 0) {
    return nullptr;
  }
  size_t port = static_cast<size_t>(out_port);
  const Edge* edge = nullptr;
  if (port < kInlineEdges) {
    edge = &edges[port];
  } else if (port - kInlineEdges < more_edges.size()) {
    edge = &more_edges[port - kInlineEdges];
  }
  return edge != nullptr && edge->to >= 0 ? edge : nullptr;
}

int SymGraph::FindNode(const std::string& name) const {
  if (names_ != nullptr) {
    for (size_t id = 0; id < names_->size(); ++id) {
      if ((*names_)[id] == name) {
        return static_cast<int>(id);
      }
    }
  }
  return -1;
}

int SymGraph::Merge(const SymGraph& other, const std::string& prefix) {
  int offset = static_cast<int>(nodes_.size());
  NameTable& names = MutableNames();
  for (size_t i = 0; i < other.nodes_.size(); ++i) {
    Node node = other.nodes_[i];
    for (Edge& edge : node.edges) {
      edge.to += edge.to >= 0 ? offset : 0;
    }
    for (Edge& edge : node.more_edges) {
      edge.to += edge.to >= 0 ? offset : 0;
    }
    nodes_.push_back(std::move(node));
    const std::string& local = other.NodeName(static_cast<int>(i));
    std::string& name = names.emplace_back();
    name.reserve(prefix.size() + 1 + local.size());
    name.append(prefix).append("/").append(local);
  }
  return offset;
}

namespace {

// Resolved once: a lookup by name per run would cost a string-keyed map walk
// and a bucket vector each time. The registry never destroys instruments.
struct EngineInstruments {
  obs::Counter* runs;
  obs::Counter* steps;
  obs::Histogram* paths_explored;
};

const EngineInstruments& Instruments() {
  static const EngineInstruments instruments = [] {
    auto& registry = obs::Registry();
    return EngineInstruments{
        registry.GetCounter("innet_symexec_runs_total"),
        registry.GetCounter("innet_symexec_steps_total"),
        registry.GetHistogram("innet_symexec_paths_explored", {},
                              obs::ExponentialBuckets(1.0, 4.0, 10))};
  }();
  return instruments;
}

}  // namespace

EngineResult Engine::Run(const SymGraph& graph, int start, int in_port, SymbolicPacket seed) {
  EngineResult result;
  if (start < 0 || static_cast<size_t>(start) >= graph.nodes_.size()) {
    return result;
  }
  if (seed.hop_count() == 0) {
    if (arena_ != nullptr && arena_.use_count() == 1) {
      arena_->Reset(graph.names());
    } else {
      arena_ = std::make_shared<HopArena>(graph.names());
    }
    seed.StartPath(arena_);
  }

  // FIFO over a ring, so paths are explored breadth-first.
  size_t head = 0;
  size_t queued = 0;
  auto push = [this, &head, &queued](int node, int port, SymbolicPacket&& packet) {
    if (queued == queue_.size()) {
      std::rotate(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(head), queue_.end());
      head = 0;
      queue_.resize(std::max<size_t>(16, queue_.size() * 2));
    }
    WorkItem& slot = queue_[(head + queued) % queue_.size()];
    slot.node = node;
    slot.in_port = port;
    slot.packet = std::move(packet);
    ++queued;
  };
  push(start, in_port, std::move(seed));
  ModelContext ctx{&vars_, &branches_};

  size_t paths = 0;
  while (queued > 0) {
    WorkItem item = std::move(queue_[head]);
    head = (head + 1) % queue_.size();
    --queued;
    if (item.packet.hop_count() >= options_.max_hops) {
      result.truncated = true;
      continue;
    }
    if (++paths > static_cast<size_t>(options_.max_paths)) {
      result.truncated = true;
      break;
    }

    const SymGraph::Node& node = graph.nodes_[static_cast<size_t>(item.node)];
    transitions_.clear();
    node.model->Apply(&ctx, item.packet, item.in_port, &transitions_);
    ++result.steps;

    if (transitions_.empty()) {
      item.packet.RecordHop(item.node, 0);
      result.dropped.push_back(std::move(item.packet));
      continue;
    }
    for (Transition& t : transitions_) {
      if (!t.packet.feasible()) {
        continue;
      }
      t.packet.RecordHop(item.node, t.out_port);
      if (t.out_port == kPortDeliver) {
        t.packet.set_delivered_at(item.node);
        result.delivered.push_back(std::move(t.packet));
        continue;
      }
      const SymGraph::Edge* edge = node.EdgeAt(t.out_port);
      if (edge == nullptr) {
        result.dropped.push_back(std::move(t.packet));
        continue;
      }
      push(edge->to, edge->in_port, std::move(t.packet));
    }
  }
  // Release what a truncated run left queued, so the arena can be reused.
  for (; queued > 0; --queued) {
    queue_[head].packet = SymbolicPacket();
    head = (head + 1) % queue_.size();
  }
  transitions_.clear();

  const EngineInstruments& instruments = Instruments();
  instruments.runs->Increment();
  instruments.steps->Increment(result.steps);
  if (result.truncated) {
    static obs::Counter* const truncated =
        obs::Registry().GetCounter("innet_symexec_truncated_total");
    truncated->Increment();
  }
  size_t explored = result.delivered.size() + result.dropped.size();
  instruments.paths_explored->Observe(static_cast<double>(explored));
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
