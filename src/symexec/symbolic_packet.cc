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

bool SymbolicPacket::Constrain(HeaderField f, const ValueSet& allowed) {
  const SymbolicValue& value = fields_[Index(f)].value;
  if (value.is_const) {
    if (!allowed.Contains(value.const_value)) {
      feasible_ = false;
    }
    return feasible_;
  }
  const ValueSet* current = nullptr;
  if (constraints_) {
    auto it = constraints_->find(value.var);
    current = it == constraints_->end() ? nullptr : &it->second;
  }
  ValueSet narrowed = current ? current->Intersect(allowed) : allowed;
  if (narrowed.IsEmpty()) {
    feasible_ = false;
    return false;
  }
  static const ValueSet kFull = ValueSet::Full();
  if (narrowed == (current ? *current : kFull)) {
    return true;  // nothing narrowed: keep sharing the store
  }
  if (!constraints_) {
    constraints_ = std::make_shared<ConstraintMap>();
  } else if (constraints_.use_count() > 1) {
    constraints_ = std::make_shared<ConstraintMap>(*constraints_);
  }
  (*constraints_)[value.var] = std::move(narrowed);
  return true;
}

ValueSet SymbolicPacket::PossibleValuesOf(const SymbolicValue& v) const {
  if (v.is_const) {
    return ValueSet::Single(v.const_value);
  }
  if (!constraints_) {
    return ValueSet::Full();
  }
  auto it = constraints_->find(v.var);
  return it == constraints_->end() ? ValueSet::Full() : it->second;
}

ValueSet SymbolicPacket::PossibleValues(HeaderField f) const {
  return PossibleValuesOf(fields_[Index(f)].value);
}

namespace {

ValueSet PortPredSet(const PortPredicate& pred) {
  return ValueSet::Range(pred.lo, pred.hi);
}

}  // namespace

std::vector<SymbolicPacket> SymbolicPacket::ConstrainToFlowSpec(const FlowSpec& spec,
                                                                VarAllocator* /*vars*/) const {
  // Start with one branch; direction-ambiguous predicates fork it.
  std::vector<SymbolicPacket> branches{*this};
  auto constrain_all = [&branches](HeaderField f, const ValueSet& set) {
    std::vector<SymbolicPacket> next;
    for (SymbolicPacket& b : branches) {
      if (b.Constrain(f, set)) {
        next.push_back(std::move(b));
      }
    }
    branches = std::move(next);
  };
  auto fork_either = [&branches](HeaderField a, HeaderField b, const ValueSet& set) {
    std::vector<SymbolicPacket> next;
    for (SymbolicPacket& branch : branches) {
      SymbolicPacket left = branch;
      if (left.Constrain(a, set)) {
        next.push_back(std::move(left));
      }
      SymbolicPacket right = std::move(branch);
      if (right.Constrain(b, set)) {
        next.push_back(std::move(right));
      }
    }
    branches = std::move(next);
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
    return !PossibleValuesOf(field_at(f).value).Intersect(set).IsEmpty();
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

SymbolicPacket::HopRecord::~HopRecord() {
  // Unlink each ancestor this record solely owns before it is destroyed, so
  // releasing a chain takes a loop instead of one stack frame per hop.
  std::shared_ptr<HopRecord> next = std::move(parent);
  while (next && next.use_count() == 1) {
    next = std::move(next->parent);
  }
}

void SymbolicPacket::RecordHop(const std::string& node, int out_port) {
  auto hop = std::make_shared<HopRecord>();
  hop->node = node;
  hop->out_port = out_port;
  hop->fields = fields_;
  hop->parent = std::move(last_hop_);
  last_hop_ = std::move(hop);
  ++hop_count_;
}

const std::vector<const Hop*>& SymbolicPacket::history() const {
  if (!hop_index_ || hop_index_->size() != static_cast<size_t>(hop_count_)) {
    auto index = std::make_shared<std::vector<const Hop*>>(static_cast<size_t>(hop_count_));
    size_t i = index->size();
    for (const HopRecord* hop = last_hop_.get(); hop != nullptr; hop = hop->parent.get()) {
      (*index)[--i] = hop;
    }
    hop_index_ = std::move(index);
  }
  return *hop_index_;
}

int SymbolicPacket::FindHop(const std::string& name, int from) const {
  const std::vector<const Hop*>& hops = history();
  for (size_t i = static_cast<size_t>(from); i < hops.size(); ++i) {
    if (hops[i]->node == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
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
