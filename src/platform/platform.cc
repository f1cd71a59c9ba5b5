#include "src/platform/platform.h"

#include "src/obs/health.h"
#include "src/obs/trace.h"

namespace innet::platform {

namespace {

// Consolidated graphs prefix each tenant's element names with "t<i>_" in
// merge order; map that prefix back to the tenant label ("" when the name
// doesn't carry one, e.g. shared glue elements).
std::string TenantForElement(const std::string& element_name,
                             const std::vector<std::string>& tenants) {
  if (element_name.size() < 3 || element_name[0] != 't') {
    return "";
  }
  size_t i = 1;
  size_t index = 0;
  while (i < element_name.size() && element_name[i] >= '0' && element_name[i] <= '9') {
    index = index * 10 + static_cast<size_t>(element_name[i] - '0');
    ++i;
  }
  if (i == 1 || i >= element_name.size() || element_name[i] != '_' || index >= tenants.size()) {
    return "";
  }
  return tenants[index];
}

}  // namespace

Vm::VmId InNetPlatform::Install(Ipv4Address addr, const std::string& config_text,
                                std::string* error, VmKind kind, bool sandbox,
                                const std::vector<Ipv4Address>& sandbox_whitelist) {
  std::string effective = config_text;
  if (sandbox) {
    auto parsed = click::ConfigGraph::Parse(config_text, error);
    if (!parsed) {
      return 0;
    }
    auto wrapped = WrapWithEnforcer(*parsed, sandbox_whitelist, 60.0, error);
    if (!wrapped) {
      return 0;
    }
    effective = wrapped->ToString();
  }
  Vm* vm = vms_.Create(kind, effective,
                       [this](Vm* ready) {
                         AttachEgress(ready);
                         // Traffic that arrived during the boot was buffered
                         // by the stalled handler.
                         FlushStalled(ready->id());
                       },
                       error);
  if (vm == nullptr) {
    return 0;
  }
  switch_.AddAddressRule(addr, vm->id());
  installed_[addr.value()] = vm->id();
  vm_rules_[vm->id()].addrs.push_back(addr.value());
  return vm->id();
}

Vm::VmId InNetPlatform::InstallConsolidated(const std::vector<TenantConfig>& tenants,
                                            std::string* error) {
  auto merged = ConsolidateTenants(tenants, error);
  if (!merged) {
    return 0;
  }
  Vm* vm = vms_.Create(VmKind::kClickOs, merged->ToString(),
                       [this](Vm* ready) {
                         AttachEgress(ready);
                         FlushStalled(ready->id());
                       },
                       error);
  if (vm == nullptr) {
    return 0;
  }
  // Remember the tenant order: the merged graph prefixes each tenant's
  // elements "t<i>_", so metric export can attribute element counters back
  // to the tenant that owns them.
  std::vector<std::string>& tenant_labels = consolidated_tenants_[vm->id()];
  for (const TenantConfig& tenant : tenants) {
    tenant_labels.push_back(tenant.addr.ToString());
    switch_.AddAddressRule(tenant.addr, vm->id());
    installed_[tenant.addr.value()] = vm->id();
    vm_rules_[vm->id()].addrs.push_back(tenant.addr.value());
  }
  vms_.RefreshIntTenants(vm->id());
  return vm->id();
}

bool InNetPlatform::UninstallVm(Vm::VmId vm_id) {
  bool found = false;
  for (auto it = installed_.begin(); it != installed_.end();) {
    if (it->second == vm_id) {
      it = installed_.erase(it);
      found = true;
    } else {
      ++it;
    }
  }
  switch_.RemoveRulesForVm(vm_id);
  auto stalled = stalled_buffers_.find(vm_id);
  if (stalled != stalled_buffers_.end()) {
    abandoned_packets_ += stalled->second.size();
    ctr_abandoned_->Increment(stalled->second.size());
    stalled_buffers_.erase(stalled);
  }
  for (auto& [addr, entry] : ondemand_) {
    if (entry.shared_vm == vm_id) {
      entry.shared_vm = 0;  // next packet boots a fresh guest
    }
  }
  vm_rules_.erase(vm_id);
  migrating_out_.erase(vm_id);
  consolidated_tenants_.erase(vm_id);
  return vms_.Destroy(vm_id) || found;
}

void InNetPlatform::CancelMigrationOut(Vm::VmId vm_id) {
  if (migrating_out_.erase(vm_id) == 0) {
    return;
  }
  Vm* vm = vms_.Find(vm_id);
  if (vm != nullptr && vm->state() == VmState::kSuspended &&
      stalled_buffers_.count(vm_id) != 0) {
    ++resumes_on_traffic_;
    ctr_traffic_resumes_->Increment();
    vms_.Resume(vm_id, [this, vm_id] { FlushStalled(vm_id); });
  }
}

std::optional<InNetPlatform::MigratedVm> InNetPlatform::DetachForMigration(Vm::VmId vm_id) {
  Vm* vm = vms_.Find(vm_id);
  if (vm == nullptr || vm->state() != VmState::kSuspended) {
    return std::nullopt;
  }
  MigratedVm moved;
  auto stalled = stalled_buffers_.find(vm_id);
  if (stalled != stalled_buffers_.end()) {
    moved.parked = std::move(stalled->second);
    stalled_buffers_.erase(stalled);
  }
  auto snapshot = vms_.ExportSuspended(vm_id);
  if (!snapshot) {  // unreachable given the state check; keep the buffer safe
    if (!moved.parked.empty()) {
      stalled_buffers_[vm_id] = std::move(moved.parked);
    }
    return std::nullopt;
  }
  moved.snapshot = std::move(*snapshot);
  for (auto it = installed_.begin(); it != installed_.end();) {
    it = it->second == vm_id ? installed_.erase(it) : std::next(it);
  }
  switch_.RemoveRulesForVm(vm_id);
  for (auto& [addr, entry] : ondemand_) {
    if (entry.shared_vm == vm_id) {
      entry.shared_vm = 0;
    }
  }
  vm_rules_.erase(vm_id);
  migrating_out_.erase(vm_id);
  consolidated_tenants_.erase(vm_id);
  return moved;
}

Vm::VmId InNetPlatform::InstallMigrated(Ipv4Address addr, VmSnapshot* snapshot,
                                        std::string* error) {
  Vm* vm = vms_.ImportSnapshot(snapshot, [this](Vm* ready) { FlushStalled(ready->id()); },
                               error);
  if (vm == nullptr) {
    return 0;
  }
  // The graph's egress sinks still point into the source platform: re-bind
  // them before any packet can reach the guest.
  AttachEgress(vm);
  switch_.AddAddressRule(addr, vm->id());
  installed_[addr.value()] = vm->id();
  vm_rules_[vm->id()].addrs.push_back(addr.value());
  return vm->id();
}

bool InNetPlatform::Uninstall(Ipv4Address addr) {
  auto it = installed_.find(addr.value());
  bool existed = it != installed_.end();
  if (existed) {
    UninstallVm(it->second);
  }
  // Clear pre-boot bookkeeping for the address too, so a reinstall cannot
  // replay packets buffered for the previous tenant.
  auto pending = pending_addrs_.find(addr.value());
  if (pending != pending_addrs_.end()) {
    abandoned_packets_ += pending->second.buffer.size();
    ctr_abandoned_->Increment(pending->second.buffer.size());
    pending_addrs_.erase(pending);
  }
  for (auto flow = pending_flows_.begin(); flow != pending_flows_.end();) {
    if (flow->second.addr == addr.value()) {
      abandoned_packets_ += flow->second.buffer.size();
      ctr_abandoned_->Increment(flow->second.buffer.size());
      flow = pending_flows_.erase(flow);
    } else {
      ++flow;
    }
  }
  return existed;
}

void InNetPlatform::RegisterOnDemand(Ipv4Address addr, const std::string& config_text,
                                     VmKind kind, bool per_flow) {
  OnDemandEntry entry;
  entry.config_text = config_text;
  entry.kind = kind;
  entry.per_flow = per_flow;
  ondemand_[addr.value()] = std::move(entry);
}

void InNetPlatform::HandlePacket(Packet& packet) {
  packet.set_timestamp_ns(clock_->now());
  switch_.Deliver(packet);
}

void InNetPlatform::EnableIdleSuspend(sim::TimeNs idle_timeout) {
  idle_timeout_ = idle_timeout;
  if (!idle_sweeper_armed_ && idle_timeout_ > 0) {
    idle_sweeper_armed_ = true;
    clock_->ScheduleAfter(idle_timeout_ / 2, [this] { IdleSweep(); });
  }
}

void InNetPlatform::IdleSweep() {
  if (idle_timeout_ == 0) {
    idle_sweeper_armed_ = false;
    return;
  }
  // Collect candidates first: Suspend() mutates state.
  std::vector<Vm::VmId> idle;
  for (const auto& [addr, vm_id] : installed_) {
    Vm* vm = vms_.Find(vm_id);
    if (vm != nullptr && vm->state() == VmState::kRunning &&
        clock_->now() - vm->last_activity_ns() >= idle_timeout_ &&
        migrating_out_.count(vm_id) == 0) {
      idle.push_back(vm_id);
    }
  }
  for (Vm::VmId vm_id : idle) {
    ++idle_suspends_;
    ctr_idle_suspends_->Increment();
    vms_.Suspend(vm_id, [this, vm_id] {
      // Traffic may have arrived while the suspend was in flight: resume
      // immediately rather than dropping the flow.
      if (stalled_buffers_.count(vm_id) != 0) {
        vms_.Resume(vm_id, [this, vm_id] { FlushStalled(vm_id); });
      }
    });
  }
  clock_->ScheduleAfter(idle_timeout_ / 2, [this] { IdleSweep(); });
}

bool InNetPlatform::BufferWithCap(std::deque<Packet>* buffer, Packet& packet,
                                  const std::string& owner) {
  if (buffer->size() >= buffer_cap_) {
    ++buffer_drops_;
    ctr_buffer_drops_->Increment();
    obs::Health().CountDrop(owner);
    flight_.Record(clock_->now(), obs::EventKind::kBufferDrop, "platform", owner,
                   static_cast<int64_t>(buffer->size()));
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kBufferDrop, "platform", "",
                           static_cast<int64_t>(buffer->size()));
    }
    return false;
  }
  buffer->push_back(packet);
  ++buffered_;
  ctr_buffered_->Increment();
  obs::Health().CountBuffered(owner);
  flight_.Record(clock_->now(), obs::EventKind::kBufferEnqueue, "platform", owner,
                 static_cast<int64_t>(buffer->size()));
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kBufferEnqueue, "platform", "",
                         static_cast<int64_t>(buffer->size()));
  }
  return true;
}

void InNetPlatform::OnStalled(Packet& packet, Vm::VmId vm_id) {
  BufferWithCap(&stalled_buffers_[vm_id], packet, OwnerOf(vm_id));
  Vm* vm = vms_.Find(vm_id);
  if (migrating_out_.count(vm_id) != 0) {
    return;  // migrating out: the parked traffic moves with the guest
  }
  if (vm != nullptr && vm->state() == VmState::kSuspended) {
    ++resumes_on_traffic_;
    ctr_traffic_resumes_->Increment();
    vms_.Resume(vm_id, [this, vm_id] { FlushStalled(vm_id); });
  }
  // kBooting / kSuspending / kResuming: a completion callback already queued
  // (boot ready, the suspend-done check above, or an earlier resume) will
  // flush the buffer. kCrashed: the watchdog's restart path flushes it.
}

void InNetPlatform::FlushStalled(Vm::VmId vm_id) {
  auto it = stalled_buffers_.find(vm_id);
  if (it == stalled_buffers_.end()) {
    return;
  }
  std::deque<Packet> buffer = std::move(it->second);
  stalled_buffers_.erase(it);
  Vm* vm = vms_.Find(vm_id);
  if (vm == nullptr) {
    return;
  }
  for (Packet& packet : buffer) {
    vm->Inject(packet);
  }
}

void InNetPlatform::ReinstallRules(Vm::VmId vm_id) {
  auto it = vm_rules_.find(vm_id);
  if (it == vm_rules_.end()) {
    return;
  }
  for (uint32_t addr : it->second.addrs) {
    switch_.AddAddressRule(Ipv4Address(addr), vm_id);
    installed_[addr] = vm_id;
    auto entry = ondemand_.find(addr);
    if (entry != ondemand_.end() && !entry->second.per_flow) {
      entry->second.shared_vm = vm_id;
    }
  }
  for (uint64_t key : it->second.flow_keys) {
    switch_.AddFlowRule(key, vm_id);
  }
}

void InNetPlatform::FlushPendingFor(Vm::VmId vm_id, Vm* vm) {
  // Drain pre-boot buffers the original ready callback would have flushed —
  // it never ran if that boot crashed.
  auto it = vm_rules_.find(vm_id);
  if (it == vm_rules_.end()) {
    return;
  }
  for (uint32_t addr : it->second.addrs) {
    auto pending = pending_addrs_.find(addr);
    if (pending != pending_addrs_.end()) {
      for (Packet& buffered : pending->second.buffer) {
        vm->Inject(buffered);
      }
      pending_addrs_.erase(pending);
    }
  }
  for (uint64_t key : it->second.flow_keys) {
    auto pending = pending_flows_.find(key);
    if (pending != pending_flows_.end()) {
      for (Packet& buffered : pending->second.buffer) {
        vm->Inject(buffered);
      }
      pending_flows_.erase(pending);
    }
  }
}

bool InNetPlatform::RestartCrashedVm(Vm::VmId vm_id, std::string* error) {
  return vms_.Restart(
      vm_id,
      [this, vm_id](Vm* vm) {
        AttachEgress(vm);  // the crash rebuilt the graph: re-bind sinks
        ReinstallRules(vm_id);
        FlushPendingFor(vm_id, vm);
        FlushStalled(vm_id);
        if (watchdog_ != nullptr) {
          watchdog_->OnRestartComplete(vm_id);
        }
      },
      error);
}

size_t InNetPlatform::suspended_count() const {
  size_t count = 0;
  for (const auto& [addr, vm_id] : installed_) {
    const Vm* vm = const_cast<VmManager&>(vms_).Find(vm_id);
    if (vm != nullptr && vm->state() == VmState::kSuspended) {
      ++count;
    }
  }
  return count;
}

void InNetPlatform::AttachEgress(Vm* vm) {
  vm->SetEgressHandler([this, target = vm->target()](Packet& packet) {
    flight_.Record(clock_->now(), obs::EventKind::kPacketEgress, target, {},
                   static_cast<int64_t>(packet.length()));
    if (egress_) {
      egress_(packet);
    }
  });
}

void InNetPlatform::OnMiss(Packet& packet) {
  auto entry_it = ondemand_.find(packet.ip_dst().value());
  if (entry_it == ondemand_.end()) {
    return;  // genuinely unknown traffic: dropped at the controller port
  }
  ctr_flow_misses_->Increment();
  // The miss opens a span: the buffer events and on-demand boot below parent
  // to it, so one first-packet event reads as a single tree in the trace.
  std::optional<obs::SpanScope> miss_span;
  if (obs::Tracer().enabled()) {
    miss_span.emplace(obs::Tracer(), clock_->now(), obs::EventKind::kFlowFirstPacketMiss,
                      "platform", "dst=" + packet.ip_dst().ToString());
  }
  OnDemandEntry& entry = entry_it->second;

  if (!entry.per_flow) {
    uint32_t addr = packet.ip_dst().value();
    auto pending = pending_addrs_.find(addr);
    if (pending != pending_addrs_.end()) {
      BufferWithCap(&pending->second.buffer, packet);
      return;
    }
    // First packet for this tenant: boot the shared VM and buffer.
    PendingFlow& fresh = pending_addrs_[addr];
    fresh.addr = addr;
    BufferWithCap(&fresh.buffer, packet);
    ++ondemand_boots_;
    ctr_ondemand_boots_->Increment();
    std::string error;
    Vm* created = vms_.Create(entry.kind, entry.config_text,
                         [this, addr](Vm* vm) {
                           AttachEgress(vm);
                           switch_.AddAddressRule(Ipv4Address(addr), vm->id());
                           ondemand_[addr].shared_vm = vm->id();
                           installed_[addr] = vm->id();  // idle management covers it
                           auto flushed = pending_addrs_.find(addr);
                           if (flushed != pending_addrs_.end()) {
                             for (Packet& buffered : flushed->second.buffer) {
                               vm->Inject(buffered);
                             }
                             pending_addrs_.erase(flushed);
                           }
                         },
                         &error);
    if (created != nullptr) {
      // Record the intended rule now, not in the ready callback: if the boot
      // crashes, the watchdog's restart path must still know which address
      // this guest serves (and drain its pre-boot buffer).
      vm_rules_[created->id()].addrs.push_back(addr);
    }
    return;
  }

  // Per-flow instantiation: a new flow = TCP SYN or any UDP/ICMP packet for
  // an unknown 5-tuple (§5's switch-controller heuristic).
  uint64_t key = packet.FlowKey();
  auto pending = pending_flows_.find(key);
  if (pending != pending_flows_.end()) {
    BufferWithCap(&pending->second.buffer, packet);
    return;
  }
  PendingFlow& fresh = pending_flows_[key];
  fresh.addr = packet.ip_dst().value();
  BufferWithCap(&fresh.buffer, packet);
  ++ondemand_boots_;
  ctr_ondemand_boots_->Increment();
  std::string error;
  Vm* created = vms_.Create(entry.kind, entry.config_text,
                       [this, key](Vm* vm) {
                         AttachEgress(vm);
                         switch_.AddFlowRule(key, vm->id());
                         auto flushed = pending_flows_.find(key);
                         if (flushed != pending_flows_.end()) {
                           for (Packet& buffered : flushed->second.buffer) {
                             vm->Inject(buffered);
                           }
                           pending_flows_.erase(flushed);
                         }
                       },
                       &error);
  if (created != nullptr) {
    vm_rules_[created->id()].flow_keys.push_back(key);
  }
}

size_t InNetPlatform::buffer_occupancy() const {
  size_t occupancy = 0;
  for (const auto& [vm_id, buffer] : stalled_buffers_) {
    occupancy += buffer.size();
  }
  for (const auto& [key, pending] : pending_flows_) {
    occupancy += pending.buffer.size();
  }
  for (const auto& [addr, pending] : pending_addrs_) {
    occupancy += pending.buffer.size();
  }
  return occupancy;
}

void InNetPlatform::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->GetGauge("innet_platform_buffer_occupancy_packets")
      ->Set(static_cast<double>(buffer_occupancy()));
  registry->GetGauge("innet_vm_running")->Set(static_cast<double>(vms_.running_count()));
  registry->GetGauge("innet_vm_suspended")->Set(static_cast<double>(suspended_count()));
  registry->GetGauge("innet_vm_crashed")->Set(static_cast<double>(vms_.crashed_count()));
  registry->GetGauge("innet_vm_memory_used_bytes")->Set(static_cast<double>(vms_.memory_used()));
  registry->GetGauge("innet_vm_memory_total_bytes")
      ->Set(static_cast<double>(vms_.memory_total()));
  registry->GetCounter("innet_switch_delivered_total")->SetTo(switch_.delivered_count());
  registry->GetCounter("innet_switch_missed_total")->SetTo(switch_.missed_count());
  registry->GetCounter("innet_switch_dropped_total")->SetTo(switch_.dropped_count());
  registry->GetCounter("innet_switch_fault_dropped_total")->SetTo(switch_.fault_dropped_count());
  flight_.ExportMetrics(registry);

  // Per-guest element counters. AllIds is sorted, so instrument creation
  // order (and therefore the dump) is deterministic. Consolidated guests get
  // per-element tenant attribution from the t<i>_ name prefix; dedicated
  // guests inherit the guest's owner wholesale.
  VmManager& vms = const_cast<VmManager&>(vms_);
  for (Vm::VmId id : vms_.AllIds()) {
    Vm* vm = vms.Find(id);
    if (vm == nullptr || vm->graph() == nullptr) {
      continue;  // crashed or suspended-out guests have no live counters
    }
    obs::Labels base = {{"vm", std::to_string(id)}};
    auto consolidated = consolidated_tenants_.find(id);
    if (consolidated == consolidated_tenants_.end()) {
      base.emplace_back("tenant", vm->owner());
      vm->graph()->ExportMetrics(registry, base);
      continue;
    }
    const std::vector<std::string>& tenants = consolidated->second;
    for (const auto& element : vm->graph()->elements()) {
      obs::Labels labels = base;
      labels.emplace_back("tenant", TenantForElement(element->name(), tenants));
      labels.emplace_back("element", element->name());
      labels.emplace_back("class", std::string(element->class_name()));
      registry->GetCounter("innet_element_packets_total", labels)->SetTo(element->packets());
      registry->GetCounter("innet_element_bytes_total", labels)->SetTo(element->bytes());
      registry->GetCounter("innet_element_drops_total", labels)->SetTo(element->drops());
      registry->GetCounter("innet_element_proc_ns_total", labels)->SetTo(element->proc_ns());
      for (int port = 0; port < element->n_outputs(); ++port) {
        obs::Labels port_labels = labels;
        port_labels.emplace_back("port", std::to_string(port));
        registry->GetCounter("innet_element_port_packets_total", port_labels)
            ->SetTo(element->port_packets(port));
      }
    }
    if (vm->graph()->profiler() != nullptr) {
      vm->graph()->profiler()->ExportMetrics(registry, base);
    }
  }
}

void InNetPlatform::WriteFoldedStacks(std::ostream& out) const {
  VmManager& vms = const_cast<VmManager&>(vms_);
  for (Vm::VmId id : vms_.AllIds()) {
    Vm* vm = vms.Find(id);
    if (vm != nullptr && vm->graph() != nullptr) {
      vm->graph()->WriteFolded(out);
    }
  }
}

void InNetPlatform::TakePostmortem(obs::EventKind trigger, Vm::VmId vm_id,
                                   const std::string& detail) {
  std::string target = "vm:" + std::to_string(vm_id);
  // The trigger itself is the newest ring entry, so a rendered bundle always
  // ends with the event that caused it.
  flight_.Record(clock_->now(), trigger, target, detail);

  obs::PostmortemBundle bundle;
  bundle.time_ns = clock_->now();
  bundle.trigger = trigger;
  bundle.target = target;
  bundle.detail = detail;
  Vm* vm = vms_.Find(vm_id);
  auto consolidated = consolidated_tenants_.find(vm_id);
  if (consolidated != consolidated_tenants_.end()) {
    // A consolidated guest serves several tenants; join them so the bundle
    // names everyone affected by the crash.
    for (const std::string& tenant : consolidated->second) {
      if (!bundle.tenant.empty()) {
        bundle.tenant += ",";
      }
      bundle.tenant += tenant;
    }
  }
  if (vm != nullptr) {
    if (bundle.tenant.empty()) {
      bundle.tenant = vm->owner();
    }
    bundle.span = vm->trace_span();
    if (vm->graph() != nullptr) {
      for (const auto& element : vm->graph()->elements()) {
        obs::ElementCounterDelta delta;
        delta.element = element->name();
        delta.element_class = std::string(element->class_name());
        delta.packets = element->packets();
        delta.bytes = element->bytes();
        delta.drops = element->drops();
        delta.proc_ns = element->proc_ns();
        bundle.elements.push_back(std::move(delta));
      }
    }
  }
  if (bundle.elements.empty()) {
    // The graph is already gone (watchdog give-up long after the crash, or
    // the whole VM record was torn down): fall back to the counters from the
    // guest's last bundle, or failing that the last periodic sweep capture.
    const std::vector<obs::ElementCounterDelta>* last = flight_.LastElementsFor(target);
    if (last != nullptr) {
      bundle.elements = *last;
    }
  }
  if (obs::Health().enabled()) {
    bundle.health = obs::HealthStateName(obs::Health().CurrentState(bundle.tenant));
  }
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kPostmortemSnapshot, target, detail, 0,
                         bundle.span);
  }
  flight_.SnapshotPostmortem(std::move(bundle));
}

void InNetPlatform::SnapshotElementCounters() {
  for (Vm::VmId id : vms_.AllIds()) {
    Vm* vm = vms_.Find(id);
    if (vm == nullptr || vm->graph() == nullptr) {
      continue;
    }
    std::vector<obs::ElementCounterDelta> elements;
    for (const auto& element : vm->graph()->elements()) {
      obs::ElementCounterDelta delta;
      delta.element = element->name();
      delta.element_class = std::string(element->class_name());
      delta.packets = element->packets();
      delta.bytes = element->bytes();
      delta.drops = element->drops();
      delta.proc_ns = element->proc_ns();
      elements.push_back(std::move(delta));
    }
    flight_.NotePeriodicElements("vm:" + std::to_string(id), std::move(elements));
  }
}

}  // namespace innet::platform
