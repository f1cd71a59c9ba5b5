#include "src/obs/int_telemetry.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "src/obs/health.h"
#include "src/obs/trace.h"

namespace innet::obs {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Path latency spans a single cheap hop (~50 ns) to a multi-second queue
// wait: 64ns .. ~2.1s.
std::vector<double> PathLatencyBucketsNs() { return ExponentialBuckets(64.0, 4.0, 13); }

constexpr const char* kStatusNames[] = {"drop", "egress", "unattested", "unattributed"};

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (char c : bytes) {
    hash = (hash ^ static_cast<uint64_t>(static_cast<unsigned char>(c))) * kFnvPrime;
  }
  return hash;
}

// Appends the ';'-joined canonical chain: element names from the table,
// each without its "t<i>_" prefix when `strip_prefix` is set.
void AppendChainText(const ElementNameTable* names, std::span<const uint32_t> chain,
                     bool strip_prefix, std::string* out) {
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) {
      out->push_back(';');
    }
    const ElementNameTable::Entry& entry = names->elements[chain[i]];
    out->append(std::string_view(entry.name).substr(strip_prefix ? entry.prefix_len : 0));
  }
}

void AppendHex(std::string* out, uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  char buf[16];
  int len = 0;
  do {
    buf[len++] = kDigits[value & 0xf];
    value >>= 4;
  } while (value != 0);
  while (len > 0) {
    out->push_back(buf[--len]);
  }
}

bool ParseHexList(const std::string& text, std::vector<uint64_t>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  uint64_t value = 0;
  bool have_digit = false;
  for (char c : text) {
    if (c == ',') {
      if (!have_digit) {
        return false;
      }
      out->push_back(value);
      value = 0;
      have_digit = false;
      continue;
    }
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
    have_digit = true;
  }
  if (!have_digit) {
    return false;
  }
  out->push_back(value);
  return true;
}

}  // namespace

uint64_t HashChain(const std::vector<std::string>& chain) {
  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) {
      hash = Fnv1a(hash, ";");
    }
    hash = Fnv1a(hash, chain[i]);
  }
  return hash;
}

uint64_t HashChainText(std::string_view joined) { return Fnv1a(kFnvOffset, joined); }

bool IntPathDigest::MatchesFull(uint64_t hash) const {
  return std::binary_search(full_paths.begin(), full_paths.end(), hash);
}

bool IntPathDigest::MatchesPrefix(uint64_t hash) const {
  return std::binary_search(prefixes.begin(), prefixes.end(), hash);
}

std::string IntPathDigest::Encode() const {
  std::string out = "intd1:";
  out.push_back(truncated ? 't' : 'c');
  out.push_back(':');
  bool first = true;
  for (uint64_t hash : full_paths) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendHex(&out, hash);
  }
  out.push_back(':');
  first = true;
  for (uint64_t hash : prefixes) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendHex(&out, hash);
  }
  return out;
}

bool IntPathDigest::Decode(const std::string& text, IntPathDigest* out) {
  constexpr std::string_view kPrefix = "intd1:";
  // Shortest legal form is the empty digest "intd1:c::" — flag, separator,
  // and two (possibly empty) hash lists.
  if (text.size() < kPrefix.size() + 3 || text.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  char flag = text[kPrefix.size()];
  if ((flag != 't' && flag != 'c') || text[kPrefix.size() + 1] != ':') {
    return false;
  }
  size_t body = kPrefix.size() + 2;
  size_t sep = text.find(':', body);
  if (sep == std::string::npos) {
    return false;
  }
  IntPathDigest digest;
  digest.truncated = flag == 't';
  if (!ParseHexList(text.substr(body, sep - body), &digest.full_paths) ||
      !ParseHexList(text.substr(sep + 1), &digest.prefixes)) {
    return false;
  }
  std::sort(digest.full_paths.begin(), digest.full_paths.end());
  std::sort(digest.prefixes.begin(), digest.prefixes.end());
  *out = std::move(digest);
  return true;
}

void IntCollector::SetTenantDigest(const std::string& tenant, const IntPathDigest& digest) {
  if (tenant.empty()) {
    return;
  }
  IntPathDigest sorted = digest;
  std::sort(sorted.full_paths.begin(), sorted.full_paths.end());
  sorted.full_paths.erase(std::unique(sorted.full_paths.begin(), sorted.full_paths.end()),
                          sorted.full_paths.end());
  std::sort(sorted.prefixes.begin(), sorted.prefixes.end());
  sorted.prefixes.erase(std::unique(sorted.prefixes.begin(), sorted.prefixes.end()),
                        sorted.prefixes.end());
  digests_[tenant] = std::move(sorted);
}

void IntCollector::ClearTenantDigest(const std::string& tenant) { digests_.erase(tenant); }

bool IntCollector::HasTenantDigest(const std::string& tenant) const {
  return digests_.count(tenant) != 0;
}

Counter* IntCollector::HopCounter(const ElementNameTable& names, uint32_t element) {
  if (names.hop_registry_ != registry_ || names.hop_counters_.size() != names.elements.size()) {
    names.hop_registry_ = registry_;
    names.hop_counters_.assign(names.elements.size(), nullptr);
  }
  Counter*& counter = names.hop_counters_[element];
  if (counter == nullptr) {
    counter = registry_->GetCounter("innet_int_hop_ns_total",
                                    {{"element", names.elements[element].name}});
  }
  return counter;
}

void IntCollector::CountStatus(Status status) {
  ++status_counts_[status];
  Counter*& counter = status_counters_[status];
  if (counter == nullptr) {
    counter = registry_->GetCounter("innet_int_postcards_total", {{"status", kStatusNames[status]}});
  }
  counter->Increment();
}

void IntCollector::Fold(const IntPostcard& postcard) {
  if (!enabled_) {
    return;
  }
  ++postcards_;
  for (const IntPostcardHop& hop : postcard.hops) {
    HopCounter(*postcard.names, hop.element)->Increment(hop.hop_ns);
  }
  if (postcard.truncated_hops > 0) {
    if (truncated_counter_ == nullptr) {
      truncated_counter_ = registry_->GetCounter("innet_int_hops_truncated_total", {});
    }
    truncated_counter_->Increment(postcard.truncated_hops);
  }

  chain_text_.clear();
  AppendChainText(postcard.names.get(), postcard.chain, postcard.strip_prefix, &chain_text_);
  Status status = kUnattributed;
  bool conformant = true;
  if (!postcard.tenant.empty()) {
    status = postcard.egress ? kEgress : kDrop;
    auto paths_it = chains_.find(postcard.tenant);
    if (paths_it == chains_.end()) {
      std::string tenant(postcard.tenant);
      TenantPaths fresh;
      fresh.latency = registry_->GetHistogram("innet_int_path_latency_ns", {{"tenant", tenant}},
                                              PathLatencyBucketsNs());
      paths_it = chains_.emplace(std::move(tenant), std::move(fresh)).first;
    }
    TenantPaths& paths = paths_it->second;
    paths.latency->Observe(static_cast<double>(postcard.path_ns));
    auto digest_it = digests_.find(postcard.tenant);
    if (digest_it == digests_.end()) {
      status = kUnattested;
    } else if (digest_it->second.truncated || postcard.truncated_hops > 0) {
      // Either side ran out of budget: the sets (or the observed chain) are
      // incomplete, so a mismatch proves nothing. Counted above, not flagged.
    } else {
      uint64_t hash = HashChainText(chain_text_);
      conformant = postcard.egress ? digest_it->second.MatchesFull(hash)
                                   : digest_it->second.MatchesPrefix(hash);
      if (!conformant) {
        std::string tenant(postcard.tenant);
        ++violations_;
        ++tenant_violations_[tenant];
        registry_->GetCounter("innet_path_conformance_violations_total", {{"tenant", tenant}})
            ->Increment();
        if (Tracer().enabled()) {
          Tracer().RecordNow(EventKind::kPathViolation, "tenant:" + tenant,
                             (postcard.egress ? "egress:" : "drop:") + chain_text_,
                             static_cast<int64_t>(postcard.path_ns));
        }
        Health().CountPathViolation(tenant);
      }
    }
    auto row_it = paths.rows.find(chain_text_);
    if (row_it == paths.rows.end()) {
      row_it = paths.rows.emplace(chain_text_, ChainStats{}).first;
    }
    ChainStats& stats = row_it->second;
    if (stats.count == 0 || postcard.path_ns < stats.min_ns) {
      stats.min_ns = postcard.path_ns;
    }
    if (postcard.path_ns > stats.max_ns) {
      stats.max_ns = postcard.path_ns;
    }
    ++stats.count;
    stats.total_ns += postcard.path_ns;
    if (!conformant) {
      ++stats.violations;
    }
    if (postcard.egress) {
      stats.egress = true;
    }
  }
  CountStatus(status);
  Remember(postcard, status, !conformant);
}

void IntCollector::Remember(const IntPostcard& postcard, Status status, bool violation) {
  RecentPostcard* slot;
  if (recent_.size() < kRecentDepth) {
    slot = &recent_.emplace_back();
  } else {
    slot = &recent_[recent_next_];
    recent_next_ = (recent_next_ + 1) % kRecentDepth;
  }
  slot->names = postcard.names;
  slot->tenant.assign(postcard.tenant);
  slot->vm.assign(postcard.vm);
  slot->chain.assign(postcard.chain.begin(), postcard.chain.end());
  slot->strip_prefix = postcard.strip_prefix;
  slot->status = status;
  slot->path_ns = postcard.path_ns;
  slot->violation = violation;
}

std::string IntCollector::RenderRecent(const RecentPostcard& recent) const {
  std::string chain;
  AppendChainText(recent.names.get(), recent.chain, recent.strip_prefix, &chain);
  std::string line = "t=" + (recent.tenant.empty() ? "-" : recent.tenant) + " vm=" + recent.vm +
                     " " + kStatusNames[recent.status] +
                     " chain=" + (chain.empty() ? "-" : chain) +
                     " ns=" + std::to_string(recent.path_ns);
  if (recent.violation) {
    line += " VIOLATION";
  }
  return line;
}

uint64_t IntCollector::TenantViolations(const std::string& tenant) const {
  auto it = tenant_violations_.find(tenant);
  return it == tenant_violations_.end() ? 0 : it->second;
}

std::vector<std::string> IntCollector::RecentPostcards() const {
  std::vector<std::string> lines;
  lines.reserve(recent_.size());
  for (size_t i = 0; i < recent_.size(); ++i) {
    lines.push_back(RenderRecent(recent_[(recent_next_ + i) % recent_.size()]));
  }
  return lines;
}

json::Value IntCollector::ToJson() const {
  json::Value root = json::Value::Object();
  root.Set("postcards", postcards_);
  root.Set("violations", violations_);
  json::Value status = json::Value::Object();
  for (size_t i = 0; i < kStatusCount; ++i) {
    if (status_counts_[i] != 0) {
      status.Set(kStatusNames[i], status_counts_[i]);
    }
  }
  root.Set("status", std::move(status));

  // Union of tenants with a registered digest and tenants with observed
  // postcards, in sorted order.
  std::set<std::string> tenant_names;
  for (const auto& [tenant, digest] : digests_) {
    tenant_names.insert(tenant);
  }
  for (const auto& [tenant, rows] : chains_) {
    tenant_names.insert(tenant);
  }
  json::Value tenants = json::Value::Array();
  for (const std::string& tenant : tenant_names) {
    json::Value entry = json::Value::Object();
    entry.Set("tenant", tenant);
    auto digest_it = digests_.find(tenant);
    entry.Set("attested", digest_it != digests_.end());
    if (digest_it != digests_.end()) {
      entry.Set("digest_paths", static_cast<uint64_t>(digest_it->second.full_paths.size()));
      entry.Set("digest_truncated", digest_it->second.truncated);
    }
    entry.Set("violations", TenantViolations(tenant));
    json::Value paths = json::Value::Array();
    auto chain_it = chains_.find(tenant);
    if (chain_it != chains_.end()) {
      for (const auto& [chain, stats] : chain_it->second.rows) {
        json::Value row = json::Value::Object();
        row.Set("chain", chain);
        row.Set("count", stats.count);
        row.Set("total_ns", stats.total_ns);
        row.Set("avg_ns", stats.count == 0 ? uint64_t{0} : stats.total_ns / stats.count);
        row.Set("min_ns", stats.min_ns);
        row.Set("max_ns", stats.max_ns);
        row.Set("violations", stats.violations);
        row.Set("delivered", stats.egress);
        paths.Push(std::move(row));
      }
    }
    entry.Set("paths", std::move(paths));
    tenants.Push(std::move(entry));
  }
  root.Set("tenants", std::move(tenants));

  json::Value recent = json::Value::Array();
  for (std::string& line : RecentPostcards()) {
    recent.Push(std::move(line));
  }
  root.Set("recent", std::move(recent));
  return root;
}

bool IntCollector::WriteJsonFile(const std::string& path) const {
  return ToJson().WriteFile(path);
}

void IntCollector::Clear() {
  postcards_ = 0;
  violations_ = 0;
  digests_.clear();
  status_counts_.fill(0);
  tenant_violations_.clear();
  chains_.clear();
  recent_.clear();
  recent_next_ = 0;
}

IntCollector& IntCollector::Global() {
  static IntCollector* collector = new IntCollector();
  return *collector;
}

}  // namespace innet::obs
