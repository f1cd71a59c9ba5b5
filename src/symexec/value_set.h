// ValueSet: a set of uint64 values represented as sorted, disjoint, inclusive
// intervals. This is the constraint domain of the symbolic execution engine —
// rich enough for IP prefixes, port ranges, and protocol sets, and cheap
// enough that checking stays linear in the network size (the property Figure
// 10 depends on; a full SMT solver would not give that).
//
// Up to kInline intervals live inside the object, so singletons, ranges,
// prefixes and their complements never touch the heap; larger sets spill to
// a vector.
#ifndef SRC_SYMEXEC_VALUE_SET_H_
#define SRC_SYMEXEC_VALUE_SET_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/netcore/ip.h"

namespace innet::symexec {

class ValueSet {
 public:
  struct Interval {
    uint64_t lo;
    uint64_t hi;  // inclusive
    friend bool operator==(const Interval& a, const Interval& b) {
      return a.lo == b.lo && a.hi == b.hi;
    }
  };
  static constexpr size_t kInline = 2;

  // The empty set.
  ValueSet() = default;

  static ValueSet Full() { return ValueSet(0, UINT64_MAX); }
  static ValueSet Single(uint64_t v) { return ValueSet(v, v); }
  static ValueSet Range(uint64_t lo, uint64_t hi) {
    return lo <= hi ? ValueSet(lo, hi) : ValueSet();
  }
  static ValueSet FromPrefix(const Ipv4Prefix& prefix) {
    return Range(prefix.first().value(), prefix.last().value());
  }

  bool IsEmpty() const { return size_ == 0; }
  bool Contains(uint64_t v) const;
  bool IsSingle() const { return size_ == 1 && inline_[0].lo == inline_[0].hi; }
  // Only valid when IsSingle().
  uint64_t SingleValue() const { return inline_[0].lo; }

  ValueSet Intersect(const ValueSet& other) const;
  // True when the intersection with `other` is non-empty; never builds it.
  bool Overlaps(const ValueSet& other) const;
  ValueSet Union(const ValueSet& other) const;
  // this \ other.
  ValueSet Subtract(const ValueSet& other) const;

  uint64_t Count() const;
  std::span<const Interval> intervals() const { return {data(), size_}; }
  std::string ToString() const;

  friend bool operator==(const ValueSet& a, const ValueSet& b) {
    std::span<const Interval> x = a.intervals();
    std::span<const Interval> y = b.intervals();
    return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
  }

 private:
  ValueSet(uint64_t lo, uint64_t hi) : size_(1) { inline_[0] = {lo, hi}; }
  const Interval* data() const { return size_ <= kInline ? inline_ : spill_.data(); }
  // Appends an interval that starts after every interval already held.
  void Append(Interval iv);

  size_t size_ = 0;
  Interval inline_[kInline] = {};
  // Holds every interval once there are more than kInline of them.
  std::vector<Interval> spill_;
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_VALUE_SET_H_
