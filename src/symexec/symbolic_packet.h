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
#include <string_view>
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
  // Starts a new query: the next id is 0 again.
  void Reset() { next_ = 0; }

 private:
  VarId next_ = 0;
};

struct SymbolicValue {
  uint64_t const_value = 0;
  VarId var = kNoVar;
  bool is_const = false;

  static SymbolicValue Const(uint64_t v) { return {v, kNoVar, true}; }
  static SymbolicValue Var(VarId id) { return {0, id, false}; }

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

// Node names of one symbolic graph, indexed by node id. Hops and delivery
// points refer to nodes by id; names are looked up here only when a trace,
// an explanation or a digest is rendered.
using NameTable = std::vector<std::string>;

// Storage for the hops of every packet explored in one engine run. A hop is
// a fixed-size record: the node id, the out-port, the parent hop and, per
// header field, where that field's current definition is kept. A hop stores
// a field's state only when the hop defined it (SymNet's last definitions),
// and the first hop of a path stores them all; every other field points at
// the definition the hop before it held. Records
// are immutable once written and shared by every branch that descends from
// them. The arena grows by doubling and is released whole, so recording a hop
// allocates nothing in the steady state and releasing a path never recurses.
class HopArena {
 public:
  explicit HopArena(std::shared_ptr<const NameTable> names = nullptr)
      : names_(std::move(names)) {}

  // Empties the arena for a new run over the graph named by `names`, keeping
  // its capacity. Only valid when no packet refers to it any more.
  void Reset(std::shared_ptr<const NameTable> names);

  // Name of node `id`; empty when the arena has no table or the id is out of
  // range.
  const std::string& NodeName(int id) const;

 private:
  friend class SymbolicPacket;
  struct Record {
    int32_t parent = -1;  // the previous hop's record; -1 for the first hop
    int32_t node = -1;
    int32_t out_port = 0;
    std::array<int32_t, kNumHeaderFields> defs{};  // indexes into defs_
  };
  std::vector<Record> records_;
  std::vector<FieldState> defs_;
  std::shared_ptr<const NameTable> names_;
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
  // Appends to `out` every feasible branch of this packet constrained to
  // match `spec`. Direction-ambiguous predicates ("host X" without src/dst)
  // fork a branch in two, the source side first.
  void ConstrainToFlowSpec(const FlowSpec& spec, std::vector<SymbolicPacket>* out) const;
  // As above, returning the branches (possibly none).
  std::vector<SymbolicPacket> ConstrainToFlowSpec(const FlowSpec& spec,
                                                  VarAllocator* vars) const;

  // True when some concrete packet satisfying this symbolic packet's
  // constraints *at hop `hop_index`* (or the current state if -1) matches
  // `spec`. Over-approximate for correlated multi-field constraints. When it
  // is false, ConstrainToFlowSpec yields no branch.
  bool CanMatchFlowSpec(const FlowSpec& spec, int hop_index = -1) const;

  // --- History ----------------------------------------------------------------------
  // Starts this packet's path in `arena`, whose names the hop readers below
  // use. The engine does this for every seed; a packet that records a hop
  // without it gets an unnamed arena of its own.
  void StartPath(std::shared_ptr<HopArena> arena);
  // Records departure from node `node` via `out_port`. O(1): writes one
  // record, plus one field state per field this hop defined.
  void RecordHop(int node, int out_port);
  int hop_count() const { return hop_count_; }
  // Node id, out-port and node name of hop `index` (must be < hop_count()).
  // The first indexed read after a RecordHop walks the path once (O(hops));
  // later reads are O(1). That first read writes the index, so it must not
  // race another reader.
  int HopNode(int index) const { return Hop(index).node; }
  int HopOutPort(int index) const { return Hop(index).out_port; }
  const std::string& HopName(int index) const { return arena_->NodeName(HopNode(index)); }
  // First hop index at or after `from` whose node is named `name`; -1 if none.
  int FindHop(std::string_view name, int from = 0) const;

  // Field state as of hop `index` (must be < hop_count()).
  const FieldState& FieldAtHop(HeaderField f, int index) const {
    return arena_->defs_[static_cast<size_t>(Hop(index).defs[Index(f)])];
  }

  // True when `f` kept a single definition between hops `from_hop` and
  // `to_hop` (inclusive of intermediate rewrites) — the invariant check.
  bool FieldInvariantBetween(HeaderField f, int from_hop, int to_hop) const;

  // Terminal marker the engine sets when a model delivers the packet
  // ("client", "internet", module egress): the name of the node, empty when
  // the packet was not delivered.
  const std::string& delivered_at() const;
  void set_delivered_at(int node) { delivered_at_ = node; }

  std::string Describe() const;

 private:
  static size_t Index(HeaderField f) { return static_cast<size_t>(f); }
  int NextDefHop() const { return hop_count_; }

  static std::array<VarId, kNumHeaderFields> NoVars() {
    std::array<VarId, kNumHeaderFields> vars;
    vars.fill(kNoVar);
    return vars;
  }

  const HopArena::Record& Hop(int index) const {
    return arena_->records_[static_cast<size_t>(HopRecordIndex(index))];
  }
  int32_t HopRecordIndex(int index) const;
  // The constraint on `var`, or nullptr when it is unconstrained.
  const ValueSet* FindConstraint(VarId var) const;

  struct Constraint {
    VarId var;
    ValueSet values;
  };
  using ConstraintStore = std::vector<Constraint>;  // absent var => Full()

  std::array<FieldState, kNumHeaderFields> fields_{};
  std::array<VarId, kNumHeaderFields> ingress_vars_ = NoVars();
  // Copy-on-write: copies share the store until one of them narrows a variable.
  std::shared_ptr<ConstraintStore> constraints_;
  // Hop records of this packet's run; copies share it.
  std::shared_ptr<HopArena> arena_;
  // Arena index of the newest hop's record; -1 before the first hop.
  int32_t last_hop_ = -1;
  int hop_count_ = 0;
  // Lazily built hop index -> record index map, shared by copies like the
  // arena.
  mutable std::shared_ptr<const std::vector<int32_t>> hop_index_;
  int32_t delivered_at_ = -1;
  bool feasible_ = true;
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_SYMBOLIC_PACKET_H_
