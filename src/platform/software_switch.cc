#include "src/platform/software_switch.h"

namespace innet::platform {

void SoftwareSwitch::RemoveRulesForVm(Vm::VmId vm) {
  for (auto it = address_rules_.begin(); it != address_rules_.end();) {
    it = it->second == vm ? address_rules_.erase(it) : std::next(it);
  }
  for (auto it = flow_rules_.begin(); it != flow_rules_.end();) {
    it = it->second == vm ? flow_rules_.erase(it) : std::next(it);
  }
}

void SoftwareSwitch::Deliver(Packet& packet) {
  if (fault_ != nullptr && fault_->ShouldDropPacket()) {
    ++fault_dropped_;
    if (flight_ != nullptr) {
      flight_->Record(packet.timestamp_ns(), obs::EventKind::kPacketDrop, switch_text_,
                      fault_text_, static_cast<int64_t>(packet.length()));
    }
    return;
  }
  Vm* stalled_vm = nullptr;
  auto flow_it = flow_rules_.find(packet.FlowKey());
  if (flow_it != flow_rules_.end()) {
    Vm* vm = vms_->Find(flow_it->second);
    if (vm != nullptr) {
      if (vm->state() == VmState::kRunning) {
        ++delivered_;
        if (flight_ != nullptr) {
          flight_->Record(packet.timestamp_ns(), obs::EventKind::kPacketIngress, vm->target(),
                          {}, static_cast<int64_t>(packet.length()));
        }
        vm->Inject(packet);
        return;
      }
      stalled_vm = vm;
    }
  }
  auto addr_it = address_rules_.find(packet.ip_dst().value());
  if (addr_it != address_rules_.end()) {
    Vm* vm = vms_->Find(addr_it->second);
    if (vm != nullptr) {
      if (vm->state() == VmState::kRunning) {
        ++delivered_;
        if (flight_ != nullptr) {
          flight_->Record(packet.timestamp_ns(), obs::EventKind::kPacketIngress, vm->target(),
                          {}, static_cast<int64_t>(packet.length()));
        }
        vm->Inject(packet);
        return;
      }
      if (stalled_vm == nullptr) {
        stalled_vm = vm;
      }
    }
  }
  if (stalled_vm != nullptr && stalled_) {
    stalled_(packet, stalled_vm->id());
    return;
  }
  if (miss_) {
    ++missed_;
    miss_(packet);
    return;
  }
  ++dropped_;
  if (flight_ != nullptr) {
    flight_->Record(packet.timestamp_ns(), obs::EventKind::kPacketDrop, switch_text_,
                    no_rule_text_, static_cast<int64_t>(packet.length()));
  }
}

}  // namespace innet::platform
