#include "src/click/profiler.h"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "src/obs/int_telemetry.h"
#include "src/obs/trace.h"

namespace innet::click {

GraphProfiler::GraphProfiler(GraphProfilerConfig config,
                             std::shared_ptr<const obs::ElementNameTable> names)
    : config_(std::move(config)),
      names_(std::move(names)),
      walk_sampler_(config_.sample_n, config_.seed),
      int_sampler_(config_.int_sample_n, config_.seed),
      chains_(1) {
  if (config_.sample_n != 0) {
    element_texts_.reserve(names_->elements.size());
    for (const obs::ElementNameTable::Entry& entry : names_->elements) {
      element_texts_.emplace_back(entry.name);
    }
  }
  RefreshIntTenants();
}

void GraphProfiler::RefreshIntTenants() {
  owner_tenant_.clear();
  slot_tenants_.assign(names_->tenant_slots.size(), std::string());
  if (!config_.int_tenant) {
    return;
  }
  owner_tenant_ = config_.int_tenant(-1);
  for (size_t i = 0; i < slot_tenants_.size(); ++i) {
    slot_tenants_[i] = config_.int_tenant(names_->tenant_slots[i]);
  }
}

void GraphProfiler::BeginWalk(uint64_t time_ns, Packet& packet) {
  ++walks_;
  bool int_ordinal = int_sampler_.Advance();
  bool walk_ordinal = walk_sampler_.Advance();
  egress_ = false;
  walk_sampled_ = false;
  // A TimedUnqueue release between walks can leave folded frames charged
  // from the empty chain; a new walk always starts from the empty chain.
  chain_ = kRootChain;
  spans_.clear();
  // INT activation is an independent sampling decision with the same
  // deterministic ordinal contract. A reused Packet object may carry stale
  // in-band state from an earlier walk, so the unsampled case clears it.
  if (int_ordinal && obs::Int().enabled()) {
    packet.ActivateInt(time_ns);
    ++int_walks_;
  } else {
    packet.DeactivateInt();
  }
  if (!walk_ordinal || !obs::Tracer().enabled()) {
    return;
  }
  walk_sampled_ = true;
  ++sampled_walks_;
  cursor_ns_ = time_ns;
  std::string target = config_.walk_prefix;
  if (!target.empty()) {
    target.push_back('/');
  }
  target.append("packet:").append(std::to_string(walks_));
  walk_target_ = std::move(target);
  walk_span_ = obs::Tracer().Record(time_ns, obs::EventKind::kPacketIngress, walk_target_, {},
                                    static_cast<int64_t>(packet.length()));
  obs::Tracer().PushSpan(walk_span_);
}

uint32_t GraphProfiler::AddChildChain(uint32_t element) {
  auto child = static_cast<uint32_t>(chains_.size());
  ChainNode& node = chains_.emplace_back();
  node.parent = chain_;
  node.element = element;
  node.next_sibling = chains_[chain_].first_child;
  chains_[chain_].first_child = child;
  return child;
}

void GraphProfiler::AppendIntHop(const Element& element, Packet& packet, int in_port,
                                 uint64_t cost) {
  IntHop hop;
  hop.element = element.id();
  hop.ingress_port = static_cast<uint16_t>(in_port < 0 ? 0 : in_port);
  hop.queue_depth = static_cast<uint32_t>(element.queue_depth());
  hop.endpoint = names_->elements[element.id()].endpoint;
  hop.hop_ns = cost;
  packet.AppendIntHop(hop);
}

void GraphProfiler::OpenElementSpan(const Element& element, uint64_t cost) {
  uint64_t span = obs::Tracer().Record(cursor_ns_, obs::EventKind::kElementProcess, walk_target_,
                                       element_texts_[element.id()], static_cast<int64_t>(cost));
  obs::Tracer().PushSpan(span);
  spans_.push_back(span);
  cursor_ns_ += cost;
  last_element_ = element.id();
}

void GraphProfiler::CloseElementSpan() {
  if (spans_.empty()) {
    return;
  }
  uint64_t span = spans_.back();
  spans_.pop_back();
  obs::Tracer().PopSpan();
  obs::Tracer().Record(cursor_ns_, obs::EventKind::kSpanEnd, walk_target_, {}, 0, span);
}

void GraphProfiler::NoteEgress(Packet& packet, uint64_t now_ns) {
  egress_ = true;
  if (packet.int_active() && !packet.int_done()) {
    EmitPostcard(packet, now_ns, /*egress=*/true);
  }
}

void GraphProfiler::EndWalk() {
  if (!walk_sampled_) {
    return;
  }
  // The egress/drop instant parents to the still-open ingress span, closing
  // the chain visually right where the last element slice ends.
  obs::Tracer().Record(cursor_ns_,
                       egress_ ? obs::EventKind::kPacketEgress : obs::EventKind::kPacketDrop,
                       walk_target_, egress_ ? obs::EventText() : element_texts_[last_element_],
                       0);
  obs::Tracer().PopSpan();
  obs::Tracer().Record(cursor_ns_, obs::EventKind::kSpanEnd, walk_target_, {}, 0, walk_span_);
  walk_sampled_ = false;
}

void GraphProfiler::FinishWalkInt(Packet& packet, uint64_t now_ns) {
  if (!packet.int_active() || packet.int_done() || packet.int_parked()) {
    return;
  }
  EmitPostcard(packet, now_ns, /*egress=*/false);
  packet.DeactivateInt();
}

void GraphProfiler::EmitPostcard(Packet& packet, uint64_t now_ns, bool egress) {
  std::array<obs::IntPostcardHop, kMaxIntHops> hops;
  std::array<uint32_t, kMaxIntHops> chain{};
  size_t hop_count = 0;
  size_t chain_len = 0;
  uint64_t hop_sum = 0;
  int tenant_slot = -1;
  for (const IntHop& hop : packet.int_hops()) {
    hop_sum += hop.hop_ns;
    obs::IntPostcardHop& out = hops[hop_count++];
    out.element = hop.element;
    out.ingress_port = hop.ingress_port;
    out.egress_port = hop.egress_port;
    out.queue_depth = hop.queue_depth;
    out.endpoint = hop.endpoint;
    out.hop_ns = hop.hop_ns;
    if (tenant_slot < 0 && !hop.endpoint) {
      tenant_slot = names_->elements[hop.element].tenant_slot;
    }
  }

  obs::IntPostcard postcard;
  postcard.names = names_;
  postcard.vm = config_.walk_prefix;
  postcard.egress = egress;
  postcard.truncated_hops = packet.int_truncated();
  postcard.hops = std::span<const obs::IntPostcardHop>(hops.data(), hop_count);
  // Path latency = time parked in timed elements (sim-clock delta) plus the
  // summed deterministic processing cost of every hop.
  postcard.path_ns = (now_ns >= packet.int_ingress_ns() ? now_ns - packet.int_ingress_ns() : 0) +
                     hop_sum;
  if (tenant_slot >= 0) {
    const std::vector<int>& slots = names_->tenant_slots;
    auto it = std::lower_bound(slots.begin(), slots.end(), tenant_slot);
    postcard.tenant = slot_tenants_[static_cast<size_t>(it - slots.begin())];
  }
  if (postcard.tenant.empty()) {
    postcard.tenant = owner_tenant_;
  }

  // Canonical chain: for a consolidated VM, the hops of the attributed
  // tenant whose names carry its exact "t<i>_" prefix, rendered without it
  // (matching the tenant's original element names, which is what its digest
  // was computed from); for a dedicated VM, every non-endpoint hop.
  postcard.strip_prefix = tenant_slot >= 0 && !postcard.tenant.empty();
  for (const IntHop& hop : packet.int_hops()) {
    const obs::ElementNameTable::Entry& entry = names_->elements[hop.element];
    if (!hop.endpoint && (!postcard.strip_prefix ||
                          (entry.tenant_slot == tenant_slot && entry.prefix_len != 0))) {
      chain[chain_len++] = hop.element;
    }
  }
  postcard.chain = std::span<const uint32_t>(chain.data(), chain_len);

  packet.MarkIntDone();
  obs::Int().Fold(postcard);
}

std::map<std::string, uint64_t> GraphProfiler::folded_ns() const {
  std::map<std::string, uint64_t> folded;
  std::vector<uint32_t> path;
  for (uint32_t node = 1; node < chains_.size(); ++node) {
    path.clear();
    for (uint32_t at = node; at != kRootChain; at = chains_[at].parent) {
      path.push_back(chains_[at].element);
    }
    std::string chain;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (!chain.empty()) {
        chain.push_back(';');
      }
      chain.append(names_->elements[*it].name);
    }
    folded[chain] += chains_[node].weight_ns;
  }
  return folded;
}

void GraphProfiler::WriteFolded(std::ostream& out) const {
  for (const auto& [chain, weight] : folded_ns()) {
    if (!config_.walk_prefix.empty()) {
      out << config_.walk_prefix << ';';
    }
    out << chain << ' ' << weight << '\n';
  }
}

void GraphProfiler::ExportMetrics(obs::MetricsRegistry* registry,
                                  const obs::Labels& base_labels) const {
  registry->GetCounter("innet_dataplane_walks_total", base_labels)->SetTo(walks_);
  registry->GetCounter("innet_dataplane_sampled_walks_total", base_labels)->SetTo(sampled_walks_);
  if (config_.int_sample_n != 0) {
    registry->GetCounter("innet_dataplane_int_walks_total", base_labels)->SetTo(int_walks_);
  }
}

}  // namespace innet::click
