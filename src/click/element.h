// The Click-style element framework: small units of packet processing wired
// into a directed graph by a configuration (src/click/config_parser.h).
//
// The engine is push-based: upstream elements call Output(port).Push(packet),
// and packets are modified in place. Elements that hold packets (queues,
// batchers) copy them; Packet is a value type.
//
// Every element is also its own symbolic model (src/symexec/model.h): the
// controller verifies a configuration by running each element's Apply, the
// abstract transfer function of its Push, over symbolic packets.
#ifndef SRC_CLICK_ELEMENT_H_
#define SRC_CLICK_ELEMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/netcore/packet.h"
#include "src/sim/event_queue.h"
#include "src/symexec/model.h"

namespace innet::click {

class Element;
class GraphProfiler;

using symexec::ModelContext;
using symexec::SymbolicPacket;
using symexec::Transitions;

// Where an element's output port points.
struct PortTarget {
  Element* element = nullptr;
  int port = 0;
  bool connected() const { return element != nullptr; }
};

// Called for every inter-element forward of a graph that has one attached
// (Graph::SetPacketTrace), before the target element sees the packet.
using PacketTraceHook = std::function<void(const Element& from, int out_port,
                                           const Packet& packet)>;

// Per-graph services elements may use. Timed elements (TimedUnqueue) need a
// clock; elements that expire state (ChangeEnforcer) read it lazily. The
// profiler is attached by Graph::EnableProfiling; null means no folded
// attribution or walk sampling for this graph. The trace hook is attached by
// Graph::SetPacketTrace (debugging tools such as innet_run).
struct ElementContext {
  sim::EventQueue* clock = nullptr;
  GraphProfiler* profiler = nullptr;
  PacketTraceHook trace;
};

// Apply (from SymbolicModel) reads only what Configure parsed, never the
// state Push keeps, so one configured element serves both the runtime graph
// and the symbolic graph.
class Element : public symexec::SymbolicModel {
 public:
  // Class name, e.g. "IPFilter".
  virtual std::string_view class_name() const = 0;

  // Number of input/output ports. Determined after Configure().
  int n_inputs() const { return n_inputs_; }
  int n_outputs() const { return n_outputs_; }

  // Parses the configuration string. Returns false and fills *error on
  // failure. Default: accepts only an empty configuration.
  virtual bool Configure(const std::string& args, std::string* error);

  // Handles a packet arriving on `port`. Elements forward with ForwardTo().
  virtual void Push(int port, Packet& packet) = 0;

  // Called once after the graph is wired, before any packet flows.
  virtual void Initialize(ElementContext* context) { context_ = context; }

  // --- Wiring (used by Graph) -------------------------------------------------
  void ConnectOutput(int out_port, Element* target, int target_port);
  const PortTarget& output(int port) const { return outputs_[port]; }

  // Instance name from the configuration ("batcher" in "batcher :: ...").
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  // Dense index of this element in its graph (declaration order), assigned
  // by Graph::Build. Per-packet telemetry records ids, never names.
  uint32_t id() const { return id_; }
  void set_id(uint32_t id) { id_ = id; }

  uint64_t drops() const { return drops_; }

  // Click-read-handler-style counters: packets/bytes this element received
  // (from an upstream ForwardTo or a graph injection). Local uint64s so the
  // per-packet fast path never touches the registry; Graph::ExportMetrics
  // snapshots them into obs counters at dump time.
  uint64_t packets() const { return packets_; }
  uint64_t bytes() const { return bytes_; }
  // Accumulated simulated processing time (SimulatedCostNs per arrival).
  uint64_t proc_ns() const { return proc_ns_; }
  // Packets this element pushed out of `port` (connected or not).
  uint64_t port_packets(int port) const {
    return static_cast<size_t>(port) < port_packets_.size()
               ? port_packets_[static_cast<size_t>(port)]
               : 0;
  }

  // Deterministic simulated processing cost of handling `packet`: a per-class
  // base plus a per-byte component, from a fixed table keyed by class_name()
  // (cached on first use). Pure function of (class, packet length) — safe to
  // mix into trace timestamps without breaking the byte-identical contract.
  uint64_t SimulatedCostNs(const Packet& packet) const {
    if (!cost_ready_) {
      InitCostModel();
    }
    return cost_base_ns_ +
           ((static_cast<uint64_t>(packet.length()) * cost_per_byte_x1024_) >> 10);
  }

  // Called by the upstream element / graph just before Push.
  void CountArrival(const Packet& packet) {
    ++packets_;
    bytes_ += packet.length();
    proc_ns_ += SimulatedCostNs(packet);
  }

  // Current occupancy for queue-like elements (Queue, TimedUnqueue); 0 for
  // everything else. Recorded into in-band telemetry hop records, so sampled
  // packets carry the queue depth they actually saw at traversal.
  virtual uint64_t queue_depth() const { return 0; }

 protected:
  void SetPorts(int inputs, int outputs);

  // Forwards to the element connected at `out_port`; drops if unconnected.
  void ForwardTo(int out_port, Packet& packet) {
    if (context_ != nullptr && context_->trace) {
      TraceForward(out_port, packet);  // out of line: keeps the hook call off the inline path
    }
    if (packet.int_active()) {
      // Complete this element's in-band hop record with the chosen exit port
      // before the next element appends its own.
      packet.SetLastIntEgressPort(static_cast<uint16_t>(out_port));
    }
    if (static_cast<size_t>(out_port) < port_packets_.size()) {
      ++port_packets_[static_cast<size_t>(out_port)];
    }
    const PortTarget& target = outputs_[static_cast<size_t>(out_port)];
    if (!target.connected()) {
      ++drops_;
      return;
    }
    target.element->CountArrival(packet);
    if (context_ != nullptr && context_->profiler != nullptr) {
      ForwardProfiled(target, packet);  // out of line: profiler is incomplete here
      return;
    }
    target.element->Push(target.port, packet);
  }

  void CountDrop() { ++drops_; }
  sim::EventQueue* clock() const { return context_ != nullptr ? context_->clock : nullptr; }
  GraphProfiler* profiler() const { return context_ != nullptr ? context_->profiler : nullptr; }

 private:
  void TraceForward(int out_port, const Packet& packet) const;
  void ForwardProfiled(const PortTarget& target, Packet& packet);
  // Fills the cost coefficients from the per-class table (element.cc).
  void InitCostModel() const;

  std::string name_;
  uint32_t id_ = 0;
  int n_inputs_ = 1;
  int n_outputs_ = 1;
  std::vector<PortTarget> outputs_{1};
  std::vector<uint64_t> port_packets_{0};
  uint64_t drops_ = 0;
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t proc_ns_ = 0;
  mutable bool cost_ready_ = false;
  mutable uint64_t cost_base_ns_ = 0;
  mutable uint64_t cost_per_byte_x1024_ = 0;  // ns per byte, scaled by 1024
  ElementContext* context_ = nullptr;
};

}  // namespace innet::click

#endif  // SRC_CLICK_ELEMENT_H_
