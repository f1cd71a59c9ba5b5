#include "src/symexec/symbolic_packet.h"

#include <sstream>

namespace innet::symexec {

SymbolicPacket SymbolicPacket::MakeUnconstrained(VarAllocator* vars) {
  SymbolicPacket packet;
  for (int i = 0; i < kNumHeaderFields; ++i) {
    VarId var = vars->Alloc();
    packet.fields_[static_cast<size_t>(i)].value = SymbolicValue::Var(var);
    packet.ingress_vars_[static_cast<size_t>(i)] = var;
  }
  return packet;
}

void SymbolicPacket::SetConst(HeaderField f, uint64_t v) {
  fields_[Index(f)].value = SymbolicValue::Const(v);
  fields_[Index(f)].last_def_hop = NextDefHop();
}

void SymbolicPacket::SetFresh(HeaderField f, VarAllocator* vars) {
  fields_[Index(f)].value = SymbolicValue::Var(vars->Alloc());
  fields_[Index(f)].last_def_hop = NextDefHop();
}

void SymbolicPacket::SetValue(HeaderField f, const SymbolicValue& v) {
  fields_[Index(f)].value = v;
  fields_[Index(f)].last_def_hop = NextDefHop();
}

const ValueSet* SymbolicPacket::FindConstraint(VarId var) const {
  if (constraints_) {
    for (const Constraint& c : *constraints_) {
      if (c.var == var) {
        return &c.values;
      }
    }
  }
  return nullptr;
}

bool SymbolicPacket::Constrain(HeaderField f, const ValueSet& allowed) {
  const SymbolicValue& value = fields_[Index(f)].value;
  if (value.is_const) {
    if (!allowed.Contains(value.const_value)) {
      feasible_ = false;
    }
    return feasible_;
  }
  const ValueSet* current = FindConstraint(value.var);
  ValueSet narrowed = current ? current->Intersect(allowed) : allowed;
  if (narrowed.IsEmpty()) {
    feasible_ = false;
    return false;
  }
  static const ValueSet kFull = ValueSet::Full();
  if (narrowed == (current ? *current : kFull)) {
    return true;  // nothing narrowed: keep sharing the store
  }
  if (!constraints_ || constraints_.use_count() > 1) {
    // Shared (or absent): copy it once, with room for a new entry.
    auto store = std::make_shared<ConstraintStore>();
    if (constraints_) {
      store->reserve(constraints_->size() + 1);
      store->assign(constraints_->begin(), constraints_->end());
    }
    constraints_ = std::move(store);
  }
  for (Constraint& c : *constraints_) {
    if (c.var == value.var) {
      c.values = std::move(narrowed);
      return true;
    }
  }
  constraints_->push_back({value.var, std::move(narrowed)});
  return true;
}

ValueSet SymbolicPacket::PossibleValuesOf(const SymbolicValue& v) const {
  if (v.is_const) {
    return ValueSet::Single(v.const_value);
  }
  const ValueSet* constraint = FindConstraint(v.var);
  return constraint == nullptr ? ValueSet::Full() : *constraint;
}

ValueSet SymbolicPacket::PossibleValues(HeaderField f) const {
  return PossibleValuesOf(fields_[Index(f)].value);
}

namespace {

ValueSet PortPredSet(const PortPredicate& pred) {
  return ValueSet::Range(pred.lo, pred.hi);
}

}  // namespace

void SymbolicPacket::ConstrainToFlowSpec(const FlowSpec& spec,
                                         std::vector<SymbolicPacket>* out) const {
  // Start with one branch at the end of `out`; direction-ambiguous predicates
  // fork it. Branches are narrowed in place, in a fixed order.
  const size_t first = out->size();
  out->push_back(*this);
  auto constrain_all = [out, first](HeaderField f, const ValueSet& set) {
    size_t kept = first;
    for (size_t i = first; i < out->size(); ++i) {
      if ((*out)[i].Constrain(f, set)) {
        if (kept != i) {
          (*out)[kept] = std::move((*out)[i]);
        }
        ++kept;
      }
    }
    out->erase(out->begin() + static_cast<ptrdiff_t>(kept), out->end());
  };
  auto fork_either = [out, first](HeaderField a, HeaderField b, const ValueSet& set) {
    for (size_t i = first; i < out->size();) {
      SymbolicPacket right = (*out)[i];
      if ((*out)[i].Constrain(a, set)) {
        ++i;
      } else {
        out->erase(out->begin() + static_cast<ptrdiff_t>(i));
      }
      if (right.Constrain(b, set)) {
        out->insert(out->begin() + static_cast<ptrdiff_t>(i), std::move(right));
        ++i;
      }
    }
  };

  if (spec.proto()) {
    constrain_all(HeaderField::kProto, ValueSet::Single(*spec.proto()));
  }
  if (spec.ttl()) {
    constrain_all(HeaderField::kTtl, ValueSet::Single(*spec.ttl()));
  }
  for (const AddrPredicate& pred : spec.addr_predicates()) {
    ValueSet set = ValueSet::FromPrefix(pred.prefix);
    if (pred.dir == Direction::kSrc) {
      constrain_all(HeaderField::kIpSrc, set);
    } else if (pred.dir == Direction::kDst) {
      constrain_all(HeaderField::kIpDst, set);
    } else {
      fork_either(HeaderField::kIpSrc, HeaderField::kIpDst, set);
    }
  }
  for (const PortPredicate& pred : spec.port_predicates()) {
    ValueSet set = PortPredSet(pred);
    if (pred.dir == Direction::kSrc) {
      constrain_all(HeaderField::kSrcPort, set);
    } else if (pred.dir == Direction::kDst) {
      constrain_all(HeaderField::kDstPort, set);
    } else {
      fork_either(HeaderField::kSrcPort, HeaderField::kDstPort, set);
    }
  }
}

std::vector<SymbolicPacket> SymbolicPacket::ConstrainToFlowSpec(const FlowSpec& spec,
                                                                VarAllocator* /*vars*/) const {
  std::vector<SymbolicPacket> branches;
  ConstrainToFlowSpec(spec, &branches);
  return branches;
}

bool SymbolicPacket::CanMatchFlowSpec(const FlowSpec& spec, int hop_index) const {
  auto field_at = [this, hop_index](HeaderField f) -> const FieldState& {
    if (hop_index < 0) {
      return field(f);
    }
    return FieldAtHop(f, hop_index);
  };
  auto maybe = [this, &field_at](HeaderField f, const ValueSet& set) {
    const SymbolicValue& v = field_at(f).value;
    if (v.is_const) {
      return set.Contains(v.const_value);
    }
    const ValueSet* constraint = FindConstraint(v.var);
    return constraint == nullptr ? !set.IsEmpty() : constraint->Overlaps(set);
  };

  if (spec.proto() && !maybe(HeaderField::kProto, ValueSet::Single(*spec.proto()))) {
    return false;
  }
  if (spec.ttl() && !maybe(HeaderField::kTtl, ValueSet::Single(*spec.ttl()))) {
    return false;
  }
  for (const AddrPredicate& pred : spec.addr_predicates()) {
    ValueSet set = ValueSet::FromPrefix(pred.prefix);
    bool src_ok = maybe(HeaderField::kIpSrc, set);
    bool dst_ok = maybe(HeaderField::kIpDst, set);
    bool ok = pred.dir == Direction::kSrc   ? src_ok
              : pred.dir == Direction::kDst ? dst_ok
                                            : (src_ok || dst_ok);
    if (!ok) {
      return false;
    }
  }
  for (const PortPredicate& pred : spec.port_predicates()) {
    ValueSet set = PortPredSet(pred);
    bool src_ok = maybe(HeaderField::kSrcPort, set);
    bool dst_ok = maybe(HeaderField::kDstPort, set);
    bool ok = pred.dir == Direction::kSrc   ? src_ok
              : pred.dir == Direction::kDst ? dst_ok
                                            : (src_ok || dst_ok);
    if (!ok) {
      return false;
    }
  }
  return true;
}

void HopArena::Reset(std::shared_ptr<const NameTable> names) {
  records_.clear();
  defs_.clear();
  names_ = std::move(names);
}

const std::string& HopArena::NodeName(int id) const {
  static const std::string kUnnamed;
  if (names_ == nullptr || id < 0 || static_cast<size_t>(id) >= names_->size()) {
    return kUnnamed;
  }
  return (*names_)[static_cast<size_t>(id)];
}

void SymbolicPacket::StartPath(std::shared_ptr<HopArena> arena) {
  if (hop_count_ == 0) {
    arena_ = std::move(arena);
    hop_index_.reset();
  }
}

void SymbolicPacket::RecordHop(int node, int out_port) {
  if (!arena_) {
    arena_ = std::make_shared<HopArena>();
  }
  HopArena& arena = *arena_;
  HopArena::Record record;
  record.parent = last_hop_;
  record.node = node;
  record.out_port = out_port;
  const HopArena::Record* parent =
      last_hop_ < 0 ? nullptr : &arena.records_[static_cast<size_t>(last_hop_)];
  for (size_t i = 0; i < fields_.size(); ++i) {
    // A field this hop did not write keeps the definition its parent held.
    if (parent != nullptr && fields_[i].last_def_hop != hop_count_) {
      record.defs[i] = parent->defs[i];
    } else {
      record.defs[i] = static_cast<int32_t>(arena.defs_.size());
      arena.defs_.push_back(fields_[i]);
    }
  }
  last_hop_ = static_cast<int32_t>(arena.records_.size());
  arena.records_.push_back(record);
  ++hop_count_;
}

int32_t SymbolicPacket::HopRecordIndex(int index) const {
  if (!hop_index_ || hop_index_->size() != static_cast<size_t>(hop_count_)) {
    auto hops = std::make_shared<std::vector<int32_t>>(static_cast<size_t>(hop_count_));
    size_t i = hops->size();
    for (int32_t r = last_hop_; r >= 0; r = arena_->records_[static_cast<size_t>(r)].parent) {
      (*hops)[--i] = r;
    }
    hop_index_ = std::move(hops);
  }
  return (*hop_index_)[static_cast<size_t>(index)];
}

int SymbolicPacket::FindHop(std::string_view name, int from) const {
  for (int i = from; i < hop_count_; ++i) {
    if (HopName(i) == name) {
      return i;
    }
  }
  return -1;
}

const std::string& SymbolicPacket::delivered_at() const {
  static const std::string kNotDelivered;
  return arena_ == nullptr ? kNotDelivered : arena_->NodeName(delivered_at_);
}

bool SymbolicPacket::FieldInvariantBetween(HeaderField f, int from_hop, int to_hop) const {
  if (from_hop < 0 || to_hop < from_hop || to_hop >= hop_count_) {
    return false;
  }
  // The field is invariant iff its last definition as of `to_hop` happened at
  // or before `from_hop` — i.e., no node in between rewrote it.
  return FieldAtHop(f, to_hop).last_def_hop <= from_hop;
}

std::string SymbolicPacket::Describe() const {
  std::ostringstream out;
  static constexpr HeaderField kAll[] = {
      HeaderField::kIpSrc,   HeaderField::kIpDst,       HeaderField::kProto,
      HeaderField::kTtl,     HeaderField::kSrcPort,     HeaderField::kDstPort,
      HeaderField::kPayload, HeaderField::kFirewallTag, HeaderField::kPaint};
  for (HeaderField f : kAll) {
    const SymbolicValue& v = value(f);
    out << HeaderFieldName(f) << "=";
    if (v.is_const) {
      out << v.const_value;
    } else {
      out << "v" << v.var;
      ValueSet set = PossibleValuesOf(v);
      if (!(set == ValueSet::Full())) {
        out << set.ToString();
      }
    }
    out << " ";
  }
  if (!feasible_) {
    out << "(infeasible)";
  }
  return out.str();
}

}  // namespace innet::symexec
