// SymbolicPacket: the unit of symbolic execution, after SymNet (HotMiddlebox
// '13, the engine the paper's controller embeds).
//
// Each header field holds either a concrete constant or a symbolic variable.
// Equality between fields (e.g. a server binding the response's destination
// to the request's source) is expressed by *sharing variable ids*. Value
// constraints (from filters, classifiers, routing) attach to variables as
// ValueSets. Every field remembers the hop at which it was last defined,
// which is what invariant ("const fields") checking reads — exactly the
// "last definition" tracking §4.3 describes.
#ifndef SRC_SYMEXEC_SYMBOLIC_PACKET_H_
#define SRC_SYMEXEC_SYMBOLIC_PACKET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/netcore/fields.h"
#include "src/netcore/flowspec.h"
#include "src/symexec/value_set.h"

namespace innet::symexec {

using VarId = uint32_t;
inline constexpr VarId kNoVar = 0xFFFFFFFF;

// Allocates fresh symbolic variables; owned by the engine run so ids are
// unique across all packets explored in one query.
class VarAllocator {
 public:
  VarId Alloc() { return next_++; }

 private:
  VarId next_ = 0;
};

struct SymbolicValue {
  bool is_const = false;
  uint64_t const_value = 0;
  VarId var = kNoVar;

  static SymbolicValue Const(uint64_t v) { return {true, v, kNoVar}; }
  static SymbolicValue Var(VarId id) { return {false, 0, id}; }

  friend bool operator==(const SymbolicValue& a, const SymbolicValue& b) {
    return a.is_const == b.is_const &&
           (a.is_const ? a.const_value == b.const_value : a.var == b.var);
  }
};

struct FieldState {
  SymbolicValue value;
  // Index into the packet's hop history where this field was last written;
  // -1 means "unchanged since injection".
  int last_def_hop = -1;
};

// One step of the packet's journey; `fields` snapshots the state when the
// packet *left* the node. A hop is immutable once recorded and shared by
// every branch that descends from it.
struct Hop {
  std::string node;
  int out_port = 0;
  std::array<FieldState, kNumHeaderFields> fields;
};

class SymbolicPacket {
 public:
  SymbolicPacket() = default;

  // A fully unconstrained packet: every field bound to a fresh variable.
  // This is what the controller injects for security checks (§4.4).
  static SymbolicPacket MakeUnconstrained(VarAllocator* vars);

  // --- Field access -----------------------------------------------------------
  const FieldState& field(HeaderField f) const { return fields_[Index(f)]; }
  const SymbolicValue& value(HeaderField f) const { return fields_[Index(f)].value; }

  // The variable this field was bound to at injection time (kNoVar if the
  // seed used constants).
  VarId ingress_var(HeaderField f) const { return ingress_vars_[Index(f)]; }

  // --- Mutation (models call these) ---------------------------------------------
  void SetConst(HeaderField f, uint64_t v);
  void SetFresh(HeaderField f, VarAllocator* vars);
  // Binds field f to an existing symbolic value (var or const) — used for
  // swaps and copies; does NOT reset constraints on the var.
  void SetValue(HeaderField f, const SymbolicValue& v);

  // Narrows the possible values of `f`. Returns false (and marks the packet
  // infeasible) when the intersection is empty.
  bool Constrain(HeaderField f, const ValueSet& allowed);

  // The set of concrete values `f` may take under current constraints.
  ValueSet PossibleValues(HeaderField f) const;
  // Possible values of an arbitrary symbolic value under this packet's
  // constraint store.
  ValueSet PossibleValuesOf(const SymbolicValue& v) const;

  bool feasible() const { return feasible_; }
  void MarkInfeasible() { feasible_ = false; }

  // --- FlowSpec integration -------------------------------------------------------
  // Constrains this packet to match `spec`. Direction-ambiguous predicates
  // ("host X" without src/dst) produce several branches; the result lists
  // every feasible branch (possibly empty).
  std::vector<SymbolicPacket> ConstrainToFlowSpec(const FlowSpec& spec,
                                                  VarAllocator* vars) const;

  // True when some concrete packet satisfying this symbolic packet's
  // constraints *at hop `hop_index`* (or the current state if -1) matches
  // `spec`. Over-approximate for correlated multi-field constraints.
  bool CanMatchFlowSpec(const FlowSpec& spec, int hop_index = -1) const;

  // --- History ----------------------------------------------------------------------
  // Records departure from `node` via `out_port`, snapshotting field state.
  // O(1): the new hop links to the previous one, which stays shared.
  void RecordHop(const std::string& node, int out_port);
  int hop_count() const { return hop_count_; }
  // Every hop, oldest first. Walks the chain once (O(hops)) on the first call
  // after a RecordHop; later calls and the indexed readers below are O(1).
  // That first call writes the index, so it must not race another reader.
  const std::vector<const Hop*>& history() const;
  // First hop index at or after `from` whose node equals `name`; -1 if none.
  int FindHop(const std::string& name, int from = 0) const;

  // Field state as of hop `index` (must be < hop_count()).
  const FieldState& FieldAtHop(HeaderField f, int index) const {
    return history()[static_cast<size_t>(index)]->fields[Index(f)];
  }

  // True when `f` kept a single definition between hops `from_hop` and
  // `to_hop` (inclusive of intermediate rewrites) — the invariant check.
  bool FieldInvariantBetween(HeaderField f, int from_hop, int to_hop) const;

  // Terminal marker set by sink models ("client", "internet", module egress).
  const std::string& delivered_at() const { return delivered_at_; }
  void set_delivered_at(std::string node) { delivered_at_ = std::move(node); }

  std::string Describe() const;

 private:
  static size_t Index(HeaderField f) { return static_cast<size_t>(f); }
  int NextDefHop() const { return hop_count_; }

  static std::array<VarId, kNumHeaderFields> NoVars() {
    std::array<VarId, kNumHeaderFields> vars;
    vars.fill(kNoVar);
    return vars;
  }

  // A hop plus the link to the hop before it; releases its ancestors
  // iteratively so a long chain cannot overflow the stack.
  struct HopRecord : Hop {
    ~HopRecord();
    std::shared_ptr<HopRecord> parent;
  };
  using ConstraintMap = std::unordered_map<VarId, ValueSet>;  // absent var => Full()

  std::array<FieldState, kNumHeaderFields> fields_{};
  std::array<VarId, kNumHeaderFields> ingress_vars_ = NoVars();
  // Copy-on-write: copies share the map until one of them narrows a variable.
  std::shared_ptr<ConstraintMap> constraints_;
  // Newest hop; copies share the whole chain behind it.
  std::shared_ptr<HopRecord> last_hop_;
  int hop_count_ = 0;
  // Lazily built index over the chain, shared by copies like the chain.
  mutable std::shared_ptr<const std::vector<const Hop*>> hop_index_;
  std::string delivered_at_;
  bool feasible_ = true;
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_SYMBOLIC_PACKET_H_
