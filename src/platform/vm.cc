#include "src/platform/vm.h"

#include <algorithm>
#include <string>

#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::platform {

namespace {

const char* KindLabel(VmKind kind) { return kind == VmKind::kClickOs ? "clickos" : "linux"; }

std::string VmTarget(Vm::VmId id) { return "vm:" + std::to_string(id); }

// 0.5 ms .. ~4 s, covering ClickOS boots (~30 ms) through Linux ones (~700 ms
// and worse under load).
const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double>* buckets =
      new std::vector<double>(obs::ExponentialBuckets(0.5, 2.0, 14));
  return *buckets;
}

}  // namespace

void Vm::Inject(Packet& packet) {
  if (state_ != VmState::kRunning) {
    return;
  }
  ++injected_count_;
  if (clock_ != nullptr) {
    last_activity_ns_ = clock_->now();
  }
  graph_->InjectAtSource(packet);
}

void Vm::SetEgressHandler(EgressHandler handler) {
  egress_ = std::move(handler);
  if (graph_ == nullptr) {
    return;  // crashed guest: the handler re-binds on restart
  }
  for (const auto& element : graph_->elements()) {
    if (auto* sink = dynamic_cast<click::ToNetfront*>(element.get())) {
      sink->set_handler([this](Packet& packet) {
        if (egress_) {
          egress_(packet);
        }
      });
    }
  }
}

void VmManager::ScheduleBootCompletion(Vm* vm, ReadyCallback on_ready) {
  // The fate of the boot is decided when it is scheduled: one Bernoulli draw
  // per boot keeps the fault stream aligned with boot order, which the event
  // queue makes deterministic.
  bool will_fail = fault_ != nullptr && fault_->ShouldFailBoot();
  // Boot cost scales with every guest holding resources (running or in
  // transition): the Xen toolstack and backend switch touch all of them
  // (Figure 5's slope). Suspended-to-disk and crashed guests do not
  // participate.
  sim::TimeNs boot = cost_model_.BootTime(vm->kind_, non_suspended_count());
  clock_->ScheduleAfter(
      boot, [this, id = vm->id_, epoch = vm->epoch_, will_fail, boot, cb = std::move(on_ready)] {
        Vm* target = Find(id);
        if (target == nullptr || target->state_ != VmState::kBooting ||
            target->epoch_ != epoch) {
          return;  // destroyed, crashed, or superseded by a later restart
        }
        if (will_fail) {
          obs::Registry()
              .GetCounter("innet_vm_boot_failures_total", {{"kind", KindLabel(target->kind_)}})
              ->Increment();
          if (obs::Tracer().enabled()) {
            obs::Tracer().Record(clock_->now(), obs::EventKind::kVmBootFailed, VmTarget(id), "",
                                 0, target->trace_span_);
          }
          Crash(id);
          return;
        }
        target->state_ = VmState::kRunning;
        ++target->epoch_;
        target->last_activity_ns_ = clock_->now();
        obs::Registry()
            .GetHistogram("innet_vm_boot_latency_ms", {{"kind", KindLabel(target->kind_)}},
                          LatencyBucketsMs())
            ->Observe(sim::ToMillis(boot));
        obs::Health().ObserveBootLatency(target->owner_, sim::ToMillis(boot));
        if (obs::Tracer().enabled()) {
          obs::Tracer().Record(clock_->now(), obs::EventKind::kVmBootReady, VmTarget(id), "",
                               static_cast<int64_t>(boot), target->trace_span_);
        }
        ArmCrashTimer(target);
        if (cb) {
          cb(target);
        }
      });
}

void VmManager::ArmCrashTimer(Vm* vm) {
  if (fault_ == nullptr) {
    return;
  }
  sim::TimeNs delay = fault_->NextCrashDelay();
  if (delay == 0) {
    return;
  }
  clock_->ScheduleAfter(delay, [this, id = vm->id_, epoch = vm->epoch_] {
    Vm* target = Find(id);
    if (target == nullptr || target->state_ != VmState::kRunning || target->epoch_ != epoch) {
      return;  // gone, parked, or a different incarnation of the id
    }
    Crash(id);
  });
}

void VmManager::NotifyCrash(Vm* vm) {
  for (const CrashObserver& observer : crash_observers_) {
    observer(vm);
  }
}

void VmManager::EnableProfiling(uint32_t sample_n, uint64_t seed, uint32_t int_sample_n) {
  profile_enabled_ = true;
  profile_sample_n_ = sample_n;
  profile_int_sample_n_ = int_sample_n;
  profile_seed_ = seed;
  for (Vm::VmId id : AllIds()) {
    MaybeAttachProfiler(Find(id));
  }
}

void VmManager::SetIntTenantResolver(IntTenantResolver resolver) {
  int_tenant_resolver_ = std::move(resolver);
  if (profile_enabled_) {
    for (Vm::VmId id : AllIds()) {
      MaybeAttachProfiler(Find(id));
    }
  }
}

void VmManager::RefreshIntTenants(Vm::VmId id) {
  Vm* vm = Find(id);
  if (vm != nullptr && vm->graph_ != nullptr && vm->graph_->profiler() != nullptr) {
    vm->graph_->profiler()->RefreshIntTenants();
  }
}

void VmManager::MaybeAttachProfiler(Vm* vm) {
  if (!profile_enabled_ || vm == nullptr || vm->graph_ == nullptr) {
    return;
  }
  click::GraphProfilerConfig config;
  config.sample_n = profile_sample_n_;
  config.int_sample_n = profile_int_sample_n_;
  config.seed = profile_seed_;
  config.walk_prefix = VmTarget(vm->id_);
  if (int_tenant_resolver_) {
    config.int_tenant = [resolver = int_tenant_resolver_, id = vm->id_](int slot) {
      return resolver(id, slot);
    };
  }
  vm->graph_->EnableProfiling(std::move(config));
}

Vm* VmManager::Create(VmKind kind, const std::string& config_text, ReadyCallback on_ready,
                      std::string* error) {
  uint64_t needed = cost_model_.MemoryBytes(kind);
  if (memory_used_ + needed > memory_total_) {
    *error = "platform out of guest memory";
    return nullptr;
  }
  auto graph = click::Graph::FromText(config_text, error, clock_);
  if (graph == nullptr) {
    return nullptr;
  }

  auto vm = std::unique_ptr<Vm>(new Vm());
  vm->id_ = next_id_++;
  vm->target_ = VmTarget(vm->id_);
  vm->kind_ = kind;
  vm->state_ = VmState::kBooting;
  vm->graph_ = std::move(graph);
  vm->config_text_ = config_text;
  vm->clock_ = clock_;
  Vm* raw = vm.get();
  memory_used_ += needed;
  vms_.emplace(raw->id_, std::move(vm));
  MaybeAttachProfiler(raw);
  obs::Registry().GetCounter("innet_vm_boots_total", {{"kind", KindLabel(kind)}})->Increment();
  if (obs::Tracer().enabled()) {
    // The boot-start span roots this guest's lifecycle tree; it parents to
    // the current scope (e.g. an enclosing deploy or first-packet span).
    raw->trace_span_ =
        obs::Tracer().Record(clock_->now(), obs::EventKind::kVmBootStart, VmTarget(raw->id_));
  }
  ScheduleBootCompletion(raw, std::move(on_ready));
  return raw;
}

bool VmManager::Restart(Vm::VmId id, ReadyCallback on_ready, std::string* error) {
  Vm* vm = Find(id);
  if (vm == nullptr || vm->state_ != VmState::kCrashed) {
    if (error != nullptr) {
      *error = "no crashed guest with that id";
    }
    return false;
  }
  uint64_t needed = cost_model_.MemoryBytes(vm->kind_);
  if (memory_used_ + needed > memory_total_) {
    if (error != nullptr) {
      *error = "platform out of guest memory";
    }
    return false;
  }
  // A crash lost the guest's element state: rebuild the graph from the
  // original configuration (it parsed once, so this cannot fail in normal
  // operation — but report rather than assert).
  std::string parse_error;
  auto graph = click::Graph::FromText(vm->config_text_, &parse_error, clock_);
  if (graph == nullptr) {
    if (error != nullptr) {
      *error = "restart config rebuild failed: " + parse_error;
    }
    return false;
  }
  memory_used_ += needed;
  vm->graph_ = std::move(graph);
  vm->state_ = VmState::kBooting;
  ++vm->epoch_;
  ++vm->restart_count_;
  MaybeAttachProfiler(vm);
  obs::Registry().GetCounter("innet_vm_restarts_total")->Increment();
  obs::Health().CountRestart(vm->owner_);
  if (obs::Tracer().enabled()) {
    // Chain the restart to the previous incarnation's boot/restart span so
    // the whole crash-restart history hangs off one tree.
    vm->trace_span_ = obs::Tracer().Record(clock_->now(), obs::EventKind::kVmRestart,
                                           VmTarget(id), "", 0, vm->trace_span_);
  }
  ScheduleBootCompletion(vm, std::move(on_ready));
  return true;
}

bool VmManager::Crash(Vm::VmId id) {
  Vm* vm = Find(id);
  if (vm == nullptr) {
    return false;
  }
  switch (vm->state_) {
    case VmState::kBooting:
    case VmState::kRunning:
    case VmState::kSuspending:
    case VmState::kResuming:
      break;
    default:
      return false;  // suspended-to-disk guests hold no RAM and cannot crash
  }
  memory_used_ -= cost_model_.MemoryBytes(vm->kind_);
  vm->state_ = VmState::kCrashed;
  ++vm->epoch_;
  ++crash_count_;
  obs::Registry().GetCounter("innet_vm_crashes_total")->Increment();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kVmCrash, VmTarget(id), "", 0,
                         vm->trace_span_);
  }
  // Observers run while the dying graph is still intact: post-mortem capture
  // (the platform's flight recorder) reads its element counters. Only after
  // they return does the crash actually destroy the guest's state.
  NotifyCrash(vm);
  vm->graph_.reset();
  return true;
}

bool VmManager::Suspend(Vm::VmId id, std::function<void()> done) {
  Vm* vm = Find(id);
  if (vm == nullptr || vm->state_ != VmState::kRunning) {
    return false;
  }
  vm->state_ = VmState::kSuspending;
  ++vm->epoch_;
  sim::TimeNs latency = cost_model_.SuspendTime(vm_count());
  if (fault_ != nullptr) {
    latency = fault_->StretchSuspend(latency);
  }
  // The completion runs from the event queue with an empty span stack, so
  // capture the initiator's scope (e.g. a migration span) now.
  uint64_t parent = obs::Tracer().enabled() ? obs::Tracer().current_span() : 0;
  clock_->ScheduleAfter(latency, [this, id, latency, parent, epoch = vm->epoch_,
                                  cb = std::move(done)] {
    Vm* target = Find(id);
    if (target != nullptr && target->state_ == VmState::kSuspending &&
        target->epoch_ == epoch) {
      target->state_ = VmState::kSuspended;
      ++target->epoch_;
      // Suspend-to-disk releases the guest's RAM.
      memory_used_ -= cost_model_.MemoryBytes(target->kind_);
      obs::Registry().GetCounter("innet_vm_suspends_total")->Increment();
      obs::Registry()
          .GetHistogram("innet_vm_suspend_latency_ms", {}, LatencyBucketsMs())
          ->Observe(sim::ToMillis(latency));
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kVmSuspend, VmTarget(id), "",
                             static_cast<int64_t>(latency), parent);
      }
    }
    if (cb) {
      cb();
    }
  });
  return true;
}

bool VmManager::Resume(Vm::VmId id, std::function<void()> done) {
  Vm* vm = Find(id);
  if (vm == nullptr || vm->state_ != VmState::kSuspended) {
    return false;
  }
  uint64_t needed = cost_model_.MemoryBytes(vm->kind_);
  if (memory_used_ + needed > memory_total_) {
    return false;  // no RAM to restore into; the guest stays parked
  }
  memory_used_ += needed;
  vm->state_ = VmState::kResuming;
  ++vm->epoch_;
  sim::TimeNs latency = cost_model_.ResumeTime(vm_count());
  if (fault_ != nullptr) {
    latency = fault_->StretchResume(latency);
  }
  uint64_t parent = obs::Tracer().enabled() ? obs::Tracer().current_span() : 0;
  clock_->ScheduleAfter(latency, [this, id, latency, parent, epoch = vm->epoch_,
                                  cb = std::move(done)] {
    Vm* target = Find(id);
    if (target != nullptr && target->state_ == VmState::kResuming &&
        target->epoch_ == epoch) {
      target->state_ = VmState::kRunning;
      ++target->epoch_;
      obs::Registry().GetCounter("innet_vm_resumes_total")->Increment();
      obs::Registry()
          .GetHistogram("innet_vm_resume_latency_ms", {}, LatencyBucketsMs())
          ->Observe(sim::ToMillis(latency));
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kVmResume, VmTarget(id), "",
                             static_cast<int64_t>(latency), parent);
      }
      ArmCrashTimer(target);
    }
    if (cb) {
      cb();
    }
  });
  return true;
}

std::optional<VmSnapshot> VmManager::ExportSuspended(Vm::VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end() || it->second->state_ != VmState::kSuspended) {
    return std::nullopt;
  }
  Vm* vm = it->second.get();
  VmSnapshot snapshot;
  snapshot.kind = vm->kind_;
  snapshot.config_text = std::move(vm->config_text_);
  snapshot.owner = std::move(vm->owner_);
  snapshot.graph = std::move(vm->graph_);
  snapshot.injected_count = vm->injected_count_;
  snapshot.restart_count = vm->restart_count_;
  vm->state_ = VmState::kDestroyed;
  ++vm->epoch_;
  vms_.erase(it);
  obs::Registry().GetCounter("innet_vm_migrate_exports_total")->Increment();
  return snapshot;
}

Vm* VmManager::ImportSnapshot(VmSnapshot* snapshot, ReadyCallback on_ready, std::string* error) {
  if (snapshot == nullptr || snapshot->graph == nullptr) {
    if (error != nullptr) {
      *error = "snapshot carries no graph";
    }
    return nullptr;
  }
  uint64_t needed = cost_model_.MemoryBytes(snapshot->kind);
  if (memory_used_ + needed > memory_total_) {
    if (error != nullptr) {
      *error = "platform out of guest memory";
    }
    return nullptr;
  }
  auto vm = std::unique_ptr<Vm>(new Vm());
  vm->id_ = next_id_++;
  vm->target_ = VmTarget(vm->id_);
  vm->kind_ = snapshot->kind;
  vm->state_ = VmState::kResuming;
  vm->graph_ = std::move(snapshot->graph);
  vm->config_text_ = std::move(snapshot->config_text);
  vm->owner_ = std::move(snapshot->owner);
  vm->injected_count_ = snapshot->injected_count;
  vm->restart_count_ = snapshot->restart_count;
  vm->clock_ = clock_;
  Vm* raw = vm.get();
  memory_used_ += needed;
  vms_.emplace(raw->id_, std::move(vm));
  // The transplanted graph keeps its element state; profiling restarts under
  // the new id (fresh folded chains, correctly-prefixed walk targets).
  MaybeAttachProfiler(raw);
  obs::Registry().GetCounter("innet_vm_migrate_imports_total")->Increment();
  sim::TimeNs latency = cost_model_.ResumeTime(vm_count());
  if (fault_ != nullptr) {
    latency = fault_->StretchResume(latency);
  }
  uint64_t parent = obs::Tracer().enabled() ? obs::Tracer().current_span() : 0;
  clock_->ScheduleAfter(
      latency,
      [this, id = raw->id_, latency, parent, epoch = raw->epoch_, cb = std::move(on_ready)] {
        Vm* target = Find(id);
        if (target == nullptr || target->state_ != VmState::kResuming ||
            target->epoch_ != epoch) {
          return;  // destroyed or crashed before the import finished
        }
        target->state_ = VmState::kRunning;
        ++target->epoch_;
        target->last_activity_ns_ = clock_->now();
        obs::Registry().GetCounter("innet_vm_resumes_total")->Increment();
        obs::Registry()
            .GetHistogram("innet_vm_resume_latency_ms", {}, LatencyBucketsMs())
            ->Observe(sim::ToMillis(latency));
        if (obs::Tracer().enabled()) {
          target->trace_span_ =
              obs::Tracer().Record(clock_->now(), obs::EventKind::kVmResume, VmTarget(id),
                                   "migrated", static_cast<int64_t>(latency), parent);
        }
        ArmCrashTimer(target);
        if (cb) {
          cb(target);
        }
      });
  return raw;
}

bool VmManager::Destroy(Vm::VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    return false;
  }
  VmState state = it->second->state_;
  if (state != VmState::kSuspended && state != VmState::kCrashed) {
    memory_used_ -= cost_model_.MemoryBytes(it->second->kind_);  // others hold none
  }
  it->second->state_ = VmState::kDestroyed;
  ++it->second->epoch_;
  vms_.erase(it);
  return true;
}

Vm* VmManager::Find(Vm::VmId id) {
  auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : it->second.get();
}

size_t VmManager::running_count() const {
  size_t count = 0;
  for (const auto& [id, vm] : vms_) {
    if (vm->state_ == VmState::kRunning) {
      ++count;
    }
  }
  return count;
}

size_t VmManager::crashed_count() const {
  size_t count = 0;
  for (const auto& [id, vm] : vms_) {
    if (vm->state_ == VmState::kCrashed) {
      ++count;
    }
  }
  return count;
}

std::vector<Vm::VmId> VmManager::AllIds() const {
  std::vector<Vm::VmId> ids;
  ids.reserve(vms_.size());
  for (const auto& [id, vm] : vms_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<Vm::VmId> VmManager::CrashedIds() const {
  std::vector<Vm::VmId> ids;
  for (const auto& [id, vm] : vms_) {
    if (vm->state_ == VmState::kCrashed) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t VmManager::non_suspended_count() const {
  size_t count = 0;
  for (const auto& [id, vm] : vms_) {
    if (vm->state_ != VmState::kSuspended && vm->state_ != VmState::kCrashed) {
      ++count;
    }
  }
  return count;
}

}  // namespace innet::platform
