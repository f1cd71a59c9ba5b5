#include "src/symexec/value_set.h"

#include <algorithm>
#include <sstream>

namespace innet::symexec {

void ValueSet::Append(Interval iv) {
  if (size_ < kInline) {
    inline_[size_++] = iv;
    return;
  }
  if (size_ == kInline) {
    spill_.assign(inline_, inline_ + kInline);
  }
  spill_.push_back(iv);
  ++size_;
}

bool ValueSet::Contains(uint64_t v) const {
  for (const Interval& iv : intervals()) {
    if (v >= iv.lo && v <= iv.hi) {
      return true;
    }
    if (v < iv.lo) {
      break;  // sorted
    }
  }
  return false;
}

ValueSet ValueSet::Intersect(const ValueSet& other) const {
  ValueSet result;
  std::span<const Interval> a = intervals();
  std::span<const Interval> b = other.intervals();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    uint64_t lo = std::max(a[i].lo, b[j].lo);
    uint64_t hi = std::min(a[i].hi, b[j].hi);
    if (lo <= hi) {
      result.Append({lo, hi});
    }
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return result;
}

bool ValueSet::Overlaps(const ValueSet& other) const {
  std::span<const Interval> a = intervals();
  std::span<const Interval> b = other.intervals();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (std::max(a[i].lo, b[j].lo) <= std::min(a[i].hi, b[j].hi)) {
      return true;
    }
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

ValueSet ValueSet::Union(const ValueSet& other) const {
  // Merge the two sorted lists by lower bound, joining intervals that overlap
  // or touch (careful with hi == UINT64_MAX).
  ValueSet result;
  std::span<const Interval> a = intervals();
  std::span<const Interval> b = other.intervals();
  size_t i = 0;
  size_t j = 0;
  Interval last{};
  bool open = false;
  while (i < a.size() || j < b.size()) {
    const Interval& cur = j == b.size() || (i < a.size() && a[i].lo <= b[j].lo) ? a[i++] : b[j++];
    if (open && (cur.lo <= last.hi || (last.hi != UINT64_MAX && cur.lo == last.hi + 1))) {
      last.hi = std::max(last.hi, cur.hi);
      continue;
    }
    if (open) {
      result.Append(last);
    }
    last = cur;
    open = true;
  }
  if (open) {
    result.Append(last);
  }
  return result;
}

ValueSet ValueSet::Subtract(const ValueSet& other) const {
  ValueSet result;
  for (const Interval& a : intervals()) {
    uint64_t cursor = a.lo;
    bool open = true;
    for (const Interval& b : other.intervals()) {
      if (b.hi < cursor || !open) {
        continue;
      }
      if (b.lo > a.hi) {
        break;
      }
      if (b.lo > cursor) {
        result.Append({cursor, b.lo - 1});
      }
      if (b.hi >= a.hi) {
        open = false;
      } else {
        cursor = b.hi + 1;
      }
    }
    if (open && cursor <= a.hi) {
      result.Append({cursor, a.hi});
    }
  }
  return result;
}

uint64_t ValueSet::Count() const {
  uint64_t count = 0;
  for (const Interval& iv : intervals()) {
    count += iv.hi - iv.lo + 1;  // saturates only at Full(), which we tolerate
  }
  return count;
}

std::string ValueSet::ToString() const {
  std::span<const Interval> ivs = intervals();
  if (ivs.empty()) {
    return "{}";
  }
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < ivs.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    if (ivs[i].lo == ivs[i].hi) {
      out << ivs[i].lo;
    } else {
      out << "[" << ivs[i].lo << ", " << ivs[i].hi << "]";
    }
  }
  out << "}";
  return out.str();
}

}  // namespace innet::symexec
