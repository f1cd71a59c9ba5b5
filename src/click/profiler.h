// GraphProfiler: per-graph data-plane telemetry. Attached to a Graph (via
// ElementContext), it sees every inter-element forward and provides two
// products on top of the elements' own counters:
//
//  1. Folded call-chain attribution. Each element's simulated processing
//     cost is charged to the chain of elements the packet traversed to reach
//     it ("src;filter;rewriter 1234"), exactly the folded-stack format
//     flame-graph tooling consumes. Accumulated for every packet whenever a
//     profiler is attached. Chains live in a per-graph trie keyed by element
//     id (Element::id()): a forward steps to the child node for the next
//     element and adds the cost to its weight, a return steps back to the
//     parent. Names are joined only when the folded dump is rendered.
//
//  2. Sampled packet walks. A deterministic 1-in-N sampler (phased by a
//     seed; no wall clock — the decision is a pure function of the packet
//     ordinal) promotes selected packets to full element-by-element traces:
//     a kPacketIngress span with one kElementProcess child span per element
//     visited, closed by kPacketEgress or kPacketDrop. Element spans get
//     synthetic timestamps (ingress sim time + cumulative simulated element
//     cost), so the Perfetto export renders one sampled packet as a
//     connected slice chain on its own track.
//
// In-band telemetry rides on the same walk: INT-sampled packets carry POD
// hop records (element id, ports, queue depth, cost), and EmitPostcard hands
// the IntCollector a postcard that names elements through the graph's
// ElementNameTable. Unsampled walks allocate nothing, and a sampled walk
// allocates only its target text: every event of the walk shares that one
// text, and element spans share a name text built once per element id.
//
// Determinism contract: sampling depends only on (seed, sample_n, packet
// ordinal); timestamps mix only sim time and the deterministic element cost
// model. Two seeded runs produce byte-identical folded and trace dumps.
#ifndef SRC_CLICK_PROFILER_H_
#define SRC_CLICK_PROFILER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/click/element.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::click {

struct GraphProfilerConfig {
  // Sample every packet whose ordinal ≡ seed (mod sample_n). 0 disables walk
  // sampling (folded attribution still accumulates).
  uint32_t sample_n = 0;
  uint64_t seed = 0;
  // Prefixes walk trace targets and folded chains, e.g. "vm:3" — this is how
  // chains from many graphs stay distinguishable in one merged folded file.
  std::string walk_prefix;
  // In-band telemetry: independently sample 1-in-int_sample_n walks (same
  // deterministic ordinal contract as sample_n) to carry a per-hop metadata
  // stack on the packet itself, folded into the global IntCollector at
  // egress/drop. 0 disables INT. Also requires obs::Int().Enable().
  uint32_t int_sample_n = 0;
  // Tenant attribution for postcards: called with -1 for the graph's owning
  // tenant (dedicated VMs; may return "" for shared graphs) or with a
  // consolidated slot index parsed from a "t<i>_" element-name prefix.
  // Consulted when the profiler is attached and on RefreshIntTenants(),
  // never per postcard.
  std::function<std::string(int)> int_tenant;
};

class GraphProfiler {
 public:
  // `names` is the profiled graph's element name table (Graph::
  // element_names()); element ids index it.
  GraphProfiler(GraphProfilerConfig config, std::shared_ptr<const obs::ElementNameTable> names);
  GraphProfiler(const GraphProfiler&) = delete;
  GraphProfiler& operator=(const GraphProfiler&) = delete;

  // --- Walk lifecycle (called by Graph::Inject* and Element::ForwardTo) ----
  // BeginWalk also decides INT activation for this packet (and clears any
  // stale in-band state a reused Packet object may carry).
  void BeginWalk(uint64_t time_ns, Packet& packet);
  // `in_port` is the input port the packet arrives on — recorded in the
  // packet's in-band hop stack when INT is active for it. Inline: these run
  // on every forward, and an unsampled walk only steps the chain trie.
  void EnterElement(const Element& element, Packet& packet, int in_port = 0) {
    uint64_t cost = element.SimulatedCostNs(packet);
    if (packet.int_active() && !packet.int_done()) {
      AppendIntHop(element, packet, in_port, cost);
    }
    chain_ = ChildChain(element.id());
    chains_[chain_].weight_ns += cost;
    if (walk_sampled_) {
      OpenElementSpan(element, cost);
    }
  }
  void ExitElement() {
    if (chain_ == kRootChain) {
      return;  // unbalanced exit (deferred release outside a walk): ignore
    }
    chain_ = chains_[chain_].parent;
    if (walk_sampled_) {
      CloseElementSpan();
    }
  }
  // Called by ToNetfront when the packet leaves the graph; decides whether
  // the walk closes with kPacketEgress or kPacketDrop, and completes the
  // packet's in-band stack into a delivered postcard.
  void NoteEgress(Packet& packet, uint64_t now_ns);
  void EndWalk();
  // Closes the in-band stack of a packet whose walk ended without egress: a
  // drop postcard, unless the packet was parked by a timed element (the
  // deferred release calls this again after its own ForwardTo) or already
  // completed. Called by Graph::Inject* after EndWalk and by TimedUnqueue
  // after each deferred release.
  void FinishWalkInt(Packet& packet, uint64_t now_ns);

  // Re-reads the config's int_tenant for the owning tenant and every tenant
  // slot the graph names. Owners of the attribution inputs call this when
  // they change (a guest's owner is set, a consolidated guest's tenant order
  // is recorded).
  void RefreshIntTenants();

  uint64_t walks() const { return walks_; }
  uint64_t sampled_walks() const { return sampled_walks_; }
  uint64_t int_walks() const { return int_walks_; }

  // chain -> accumulated simulated ns (self cost per frame, flame-graph
  // semantics), rendered from the chain trie. Sorted, so the folded dump is
  // deterministic.
  std::map<std::string, uint64_t> folded_ns() const;
  // "prefix;chain;of;elements weight\n" lines (prefix omitted when empty).
  void WriteFolded(std::ostream& out) const;

  // innet_dataplane_walks_total / innet_dataplane_sampled_walks_total.
  void ExportMetrics(obs::MetricsRegistry* registry, const obs::Labels& base_labels) const;

  const GraphProfilerConfig& config() const { return config_; }

 private:
  // One call chain: the chain of `parent` extended by `element`. Children
  // of a node form a singly linked sibling list.
  struct ChainNode {
    uint32_t parent = 0;
    uint32_t element = 0;
    uint32_t first_child = 0;   // 0 = none (the root is never a child)
    uint32_t next_sibling = 0;  // 0 = none
    uint64_t weight_ns = 0;
  };
  static constexpr uint32_t kRootChain = 0;  // the empty chain

  // The node for the live chain extended by `element`, created on first use.
  uint32_t ChildChain(uint32_t element) {
    uint32_t child = chains_[chain_].first_child;
    while (child != 0 && chains_[child].element != element) {
      child = chains_[child].next_sibling;
    }
    return child != 0 ? child : AddChildChain(element);
  }
  uint32_t AddChildChain(uint32_t element);
  // The rarer halves of EnterElement / ExitElement, out of line.
  void AppendIntHop(const Element& element, Packet& packet, int in_port, uint64_t cost);
  void OpenElementSpan(const Element& element, uint64_t cost);
  void CloseElementSpan();

  // Selects walk ordinals ≡ seed (mod period) — the sampling contract —
  // by tracking the ordinal's residue instead of dividing per walk.
  class OrdinalSampler {
   public:
    OrdinalSampler(uint32_t period, uint64_t seed)
        : period_(period), phase_(period == 0 ? 0 : static_cast<uint32_t>(seed % period)) {}
    // Steps to the next walk ordinal; true when it is selected.
    bool Advance() {
      if (period_ == 0) {
        return false;
      }
      if (++residue_ == period_) {
        residue_ = 0;
      }
      return residue_ == phase_;
    }

   private:
    uint32_t period_;
    uint32_t phase_;
    uint32_t residue_ = 0;  // walks so far, modulo period_
  };

  // Builds the postcard from the packet's hop stack (tenant attribution,
  // canonical chain, path latency) and folds it into the IntCollector.
  void EmitPostcard(Packet& packet, uint64_t now_ns, bool egress);

  GraphProfilerConfig config_;
  std::shared_ptr<const obs::ElementNameTable> names_;
  // names_->elements[i].name as shared event text, for the span details of
  // sampled walks; empty when walk sampling is off.
  std::vector<obs::EventText> element_texts_;
  // Resolved int_tenant answers: the owner (slot -1) and one per entry of
  // names_->tenant_slots.
  std::string owner_tenant_;
  std::vector<std::string> slot_tenants_;

  OrdinalSampler walk_sampler_;
  OrdinalSampler int_sampler_;
  uint64_t walks_ = 0;
  uint64_t sampled_walks_ = 0;
  uint64_t int_walks_ = 0;
  std::vector<ChainNode> chains_;  // [kRootChain] is the empty chain
  uint32_t chain_ = kRootChain;    // node of the live call chain
  std::vector<uint64_t> spans_;    // open kElementProcess spans of a sampled walk

  bool walk_sampled_ = false;
  bool egress_ = false;
  uint64_t walk_span_ = 0;
  uint64_t cursor_ns_ = 0;     // synthetic clock: ingress time + costs so far
  obs::EventText walk_target_;  // "<prefix>/packet:<ordinal>", one per sampled walk
  uint32_t last_element_ = 0;  // drop attribution for sampled walks
};

}  // namespace innet::click

#endif  // SRC_CLICK_PROFILER_H_
