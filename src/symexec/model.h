// SymbolicModel: the abstract-transfer-function interface every network node
// (Click element, router, operator middlebox, endpoint) implements for the
// engine. Every click::Element is one, so an element's transfer function
// sits next to its Push. Models are loop-free and allocation-free by
// construction, the properties §4.3 credits for SymNet's scalability: a
// model appends its output packets to a buffer the engine reuses from step
// to step.
#ifndef SRC_SYMEXEC_MODEL_H_
#define SRC_SYMEXEC_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/symexec/symbolic_packet.h"

namespace innet::symexec {

struct ModelContext {
  VarAllocator* vars;
  // Scratch space for flow-spec branches (see EmitFlowSpecBranches), kept by
  // the engine across steps so a step does not allocate.
  std::vector<SymbolicPacket>* branches;
};

// Special out_port: the packet terminates here and counts as *delivered*
// (endpoints, ToNetfront). A model emitting no transitions drops the packet.
inline constexpr int kPortDeliver = -1;

// Special in_port passed by the engine when a packet *originates* at a node
// (reach-check injection). Endpoint models react by emitting the seed onto
// their link instead of treating it as arriving traffic.
inline constexpr int kPortInject = -2;

struct Transition {
  int out_port = 0;
  SymbolicPacket packet;
};
using Transitions = std::vector<Transition>;

class SymbolicModel {
 public:
  virtual ~SymbolicModel() = default;

  // Applies the node's transfer function to `packet` arriving on `in_port`,
  // appending one transition per packet it emits to `out` (which the engine
  // hands over empty). Emitting nothing terminates the path: a drop.
  virtual void Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
                     Transitions* out) = 0;
};

// Appends the branches of `packet` that match `spec` to `out` as transitions
// on `out_port`.
inline void EmitFlowSpecBranches(ModelContext* ctx, const SymbolicPacket& packet,
                                 const FlowSpec& spec, int out_port, Transitions* out) {
  ctx->branches->clear();
  packet.ConstrainToFlowSpec(spec, ctx->branches);
  for (SymbolicPacket& branch : *ctx->branches) {
    out->push_back({out_port, std::move(branch)});
  }
}

// The branch of `packet` that does NOT match `spec`. Exact when the spec has
// a single directed predicate (the common case for classifier patterns);
// over-approximate (unconstrained) otherwise — which can only make the
// checker report *more* reachable flows, never fewer, preserving soundness
// of "no compliant flow exists" rejections.
inline SymbolicPacket ElseBranch(const SymbolicPacket& packet, const FlowSpec& spec) {
  int pred_count = (spec.proto() ? 1 : 0) + (spec.ttl() ? 1 : 0) +
                   static_cast<int>(spec.addr_predicates().size()) +
                   static_cast<int>(spec.port_predicates().size());
  SymbolicPacket out = packet;
  if (spec.IsWildcard()) {
    out.MarkInfeasible();
    return out;
  }
  if (pred_count != 1) {
    return out;  // over-approximate
  }
  if (spec.proto()) {
    out.Constrain(HeaderField::kProto,
                  ValueSet::Full().Subtract(ValueSet::Single(*spec.proto())));
    return out;
  }
  if (spec.ttl()) {
    out.Constrain(HeaderField::kTtl, ValueSet::Full().Subtract(ValueSet::Single(*spec.ttl())));
    return out;
  }
  if (!spec.addr_predicates().empty()) {
    const AddrPredicate& pred = spec.addr_predicates()[0];
    if (pred.dir == Direction::kEither) {
      return out;  // negation of a disjunction: over-approximate
    }
    HeaderField f = pred.dir == Direction::kSrc ? HeaderField::kIpSrc : HeaderField::kIpDst;
    out.Constrain(f, ValueSet::Full().Subtract(ValueSet::FromPrefix(pred.prefix)));
    return out;
  }
  const PortPredicate& pred = spec.port_predicates()[0];
  if (pred.dir == Direction::kEither) {
    return out;
  }
  HeaderField f = pred.dir == Direction::kSrc ? HeaderField::kSrcPort : HeaderField::kDstPort;
  out.Constrain(f, ValueSet::Full().Subtract(ValueSet::Range(pred.lo, pred.hi)));
  return out;
}

// A first-match classifier: the branches of `packet` that match pattern i,
// and no earlier one, leave on out-port i.
inline void EmitClassifierBranches(ModelContext* ctx, const SymbolicPacket& packet,
                                   const std::vector<FlowSpec>& patterns, Transitions* out) {
  SymbolicPacket remaining = packet;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!remaining.feasible()) {
      break;
    }
    EmitFlowSpecBranches(ctx, remaining, patterns[i], static_cast<int>(i), out);
    remaining = ElseBranch(remaining, patterns[i]);
  }
}

// A model defined by a lambda; convenient for one-off nodes in tests and for
// the topology builders.
class LambdaModel : public SymbolicModel {
 public:
  using Fn = std::function<void(ModelContext*, const SymbolicPacket&, int, Transitions*)>;
  explicit LambdaModel(Fn fn) : fn_(std::move(fn)) {}
  void Apply(ModelContext* ctx, const SymbolicPacket& packet, int in_port,
             Transitions* out) override {
    fn_(ctx, packet, in_port, out);
  }

 private:
  Fn fn_;
};

// Pass-through: forwards unchanged on output 0.
class PassthroughModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    out->push_back({0, packet});
  }
};

// Terminal node: the packet is delivered here (endpoint, ToNetfront).
class SinkModel : public SymbolicModel {
 public:
  void Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet, int /*in_port*/,
             Transitions* out) override {
    out->push_back({kPortDeliver, packet});
  }
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_MODEL_H_
