#include "src/controller/fleet.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::controller {

using platform::InNetPlatform;
using platform::Vm;
using platform::VmState;

PlatformFleet::PlatformFleet(sim::EventQueue* clock, uint64_t platform_memory_bytes)
    : clock_(clock), platform_memory_bytes_(platform_memory_bytes), channel_(clock) {}

InNetPlatform* PlatformFleet::AddPlatform(const std::string& name) {
  auto it = boxes_.find(name);
  if (it != boxes_.end()) {
    return it->second.get();
  }
  auto box = std::make_unique<InNetPlatform>(clock_, platform_memory_bytes_);
  InNetPlatform* raw = box.get();
  boxes_.emplace(name, std::move(box));
  channel_.RegisterEndpoint(name, [this, name](const ControlRequest& request, RespondFn respond) {
    Dispatch(name, request, std::move(respond));
  });
  return raw;
}

InNetPlatform* PlatformFleet::Get(const std::string& name) {
  auto it = boxes_.find(name);
  return it == boxes_.end() ? nullptr : it->second.get();
}

InNetPlatform* PlatformFleet::Replace(const std::string& name) {
  // Replacing a node discards its endpoint's dedup memory by design: a
  // pre-failure token retried against the fresh machine re-executes. Record
  // the reset so dumps can explain the resulting double-execution.
  boxes_.erase(name);
  channel_.ResetEndpoint(name);
  obs::Registry().GetCounter("innet_platform_replaced_total")->Increment();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(static_cast<uint64_t>(clock_->now()), obs::EventKind::kPlatformReplaced,
                         "platform:" + name, "dedup_memory_reset");
  }
  return AddPlatform(name);
}

std::vector<std::string> PlatformFleet::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, box] : boxes_) {
    names.push_back(name);
  }
  return names;  // std::map iterates sorted
}

void PlatformFleet::Dispatch(const std::string& name, const ControlRequest& request,
                             RespondFn respond) {
  InNetPlatform* box = Get(name);
  if (box == nullptr) {
    ControlResponse response;
    response.error = "platform " + name + " has no data-plane instance";
    respond(std::move(response));
    return;
  }
  ControlResponse response;
  switch (request.op) {
    case ControlOp::kInstall: {
      std::string error;
      Vm::VmId vm = box->Install(request.addr, request.config_text, &error,
                                 platform::VmKind::kClickOs, request.sandbox, request.whitelist);
      response.ok = vm != 0;
      response.vm_id = vm;
      response.error = error;
      break;
    }
    case ControlOp::kRebuildShared: {
      // Declarative: install the merged VM for the full desired tenant list,
      // then retire the previous shared VM named by the request.
      if (request.tenants.empty()) {
        if (request.vm_id != 0) {
          box->UninstallVm(request.vm_id);
        }
        response.ok = true;
        response.vm_id = 0;
        break;
      }
      std::string error;
      Vm::VmId vm = box->InstallConsolidated(request.tenants, &error);
      response.ok = vm != 0;
      response.vm_id = vm;
      response.error = error;
      if (vm != 0 && request.vm_id != 0) {
        box->UninstallVm(request.vm_id);
      }
      break;
    }
    case ControlOp::kUninstallVm:
      response.ok = box->UninstallVm(request.vm_id);
      break;
    case ControlOp::kUninstallAddr:
      response.ok = box->Uninstall(request.addr);
      break;
    case ControlOp::kSuspend: {
      // Deferred completion: the ack is sent when the guest is frozen, so a
      // retry arriving mid-suspend queues on the endpoint's waiter list.
      box->PrepareMigrationOut(request.vm_id);
      Vm::VmId vm_id = request.vm_id;
      bool started = box->vms().Suspend(vm_id, [this, name, vm_id, respond] {
        InNetPlatform* current = Get(name);
        ControlResponse done;
        Vm* guest = current == nullptr ? nullptr : current->vms().Find(vm_id);
        if (guest != nullptr && guest->state() == VmState::kSuspended) {
          done.ok = true;
          done.vm_id = vm_id;
        } else {
          if (current != nullptr) {
            current->CancelMigrationOut(vm_id);
          }
          done.error = "source guest lost during suspend";
        }
        respond(std::move(done));
      });
      if (!started) {
        box->CancelMigrationOut(vm_id);
        response.error = "source guest not running";
        respond(std::move(response));
      }
      return;  // responded above (now or when the suspend lands)
    }
    case ControlOp::kCancelMigration:
      box->CancelMigrationOut(request.vm_id);
      response.ok = true;
      break;
    case ControlOp::kSnapshotExport: {
      auto moved = box->DetachForMigration(request.vm_id);
      if (moved) {
        response.ok = true;
        response.moved =
            std::make_shared<InNetPlatform::MigratedVm>(std::move(*moved));
      } else {
        response.error = "detach failed: guest not suspended";
      }
      break;
    }
    case ControlOp::kSnapshotImport: {
      if (!request.moved) {
        response.error = "import without snapshot";
        break;
      }
      std::string error;
      Vm::VmId vm = box->InstallMigrated(request.addr, &request.moved->snapshot, &error);
      response.ok = vm != 0;
      response.vm_id = vm;
      response.error = error;
      break;
    }
    case ControlOp::kCutover: {
      // Replay the blackout traffic re-addressed at the adopting guest; it
      // parks in the stalled buffer until the resume lands. Executes at most
      // once per token, so duplicated cutover messages cannot double-replay.
      if (request.moved) {
        for (Packet& packet : request.moved->parked) {
          packet.set_ip_dst(request.addr);
          box->HandlePacket(packet);
        }
      }
      response.ok = true;
      break;
    }
    case ControlOp::kRegionDigest:
    case ControlOp::kRegionDeploy:
    case ControlOp::kRegionExport:
    case ControlOp::kRegionImport:
      // Federation ops terminate at a RegionController endpoint, never at a
      // platform's data-plane agent. Answering with an error (instead of
      // aborting) keeps a misrouted message a clean failure.
      response.error = "platform " + name + " does not speak federation ops";
      break;
    case ControlOp::kHealthProbe: {
      Vm::VmId vm_id = request.vm_id;
      if (vm_id == 0 && request.addr.value() != 0) {
        vm_id = box->InstalledVmFor(request.addr);
      }
      Vm* guest = vm_id == 0 ? nullptr : box->vms().Find(vm_id);
      response.ok = true;
      response.vm_known = guest != nullptr;
      response.vm_id = vm_id;
      if (guest != nullptr) {
        response.vm_state = guest->state();
      }
      break;
    }
  }
  respond(std::move(response));
}

}  // namespace innet::controller
