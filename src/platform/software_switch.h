// The platform's back-end software switch (§5): forwards traffic addressed
// to tenant modules into their VMs, and hands unknown flows to the switch
// controller so it can instantiate VMs on the fly.
#ifndef SRC_PLATFORM_SOFTWARE_SWITCH_H_
#define SRC_PLATFORM_SOFTWARE_SWITCH_H_

#include <functional>
#include <unordered_map>

#include "src/netcore/packet.h"
#include "src/obs/flight_recorder.h"
#include "src/platform/vm.h"

namespace innet::platform {

class SoftwareSwitch {
 public:
  using MissHandler = std::function<void(Packet&)>;

  explicit SoftwareSwitch(VmManager* vms) : vms_(vms) {}

  // Static rule: all traffic to `dst` goes to VM `vm`.
  void AddAddressRule(Ipv4Address dst, Vm::VmId vm) { address_rules_[dst.value()] = vm; }
  void RemoveAddressRule(Ipv4Address dst) { address_rules_.erase(dst.value()); }

  // Exact-flow rule (5-tuple key), installed by the switch controller after
  // booting a per-flow VM.
  void AddFlowRule(uint64_t flow_key, Vm::VmId vm) { flow_rules_[flow_key] = vm; }
  void RemoveFlowRule(uint64_t flow_key) { flow_rules_.erase(flow_key); }

  // Removes every rule (address and flow) pointing at `vm` — used when a
  // guest is retired so a later tenant at the same address cannot inherit
  // stale forwarding state.
  void RemoveRulesForVm(Vm::VmId vm);

  // Switch-level fault injection: packets may be dropped or have a byte
  // flipped before forwarding. Pass nullptr to detach; the injector must
  // outlive the switch.
  void SetFaultInjector(sim::FaultInjector* injector) { fault_ = injector; }

  // Unknown traffic goes here (the controller port).
  void SetMissHandler(MissHandler handler) { miss_ = std::move(handler); }

  // Attaches the platform's flight recorder: every delivery, fault drop, and
  // no-rule drop leaves a breadcrumb in the ring (timestamped with the
  // packet's ingress sim time). Pass nullptr to detach.
  void SetFlightRecorder(obs::FlightRecorder* recorder) { flight_ = recorder; }

  // Traffic for a known rule whose VM is not currently running (suspended or
  // mid-transition) goes here, so the platform can resume the guest and
  // buffer the packet (§5 suspend/resume).
  using StalledHandler = std::function<void(Packet&, Vm::VmId)>;
  void SetStalledHandler(StalledHandler handler) { stalled_ = std::move(handler); }

  // Forwards `packet`: exact flow rules first, then address rules, then the
  // miss handler, then drop.
  void Deliver(Packet& packet);

  uint64_t delivered_count() const { return delivered_; }
  uint64_t missed_count() const { return missed_; }
  uint64_t dropped_count() const { return dropped_; }
  uint64_t fault_dropped_count() const { return fault_dropped_; }
  size_t flow_rule_count() const { return flow_rules_.size(); }

 private:
  VmManager* vms_;
  std::unordered_map<uint32_t, Vm::VmId> address_rules_;
  std::unordered_map<uint64_t, Vm::VmId> flow_rules_;
  MissHandler miss_;
  StalledHandler stalled_;
  sim::FaultInjector* fault_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  // Texts of the switch's own drop records, built once rather than per drop.
  obs::EventText switch_text_ = "switch";
  obs::EventText fault_text_ = "fault";
  obs::EventText no_rule_text_ = "no_rule";
  uint64_t delivered_ = 0;
  uint64_t missed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t fault_dropped_ = 0;
};

}  // namespace innet::platform

#endif  // SRC_PLATFORM_SOFTWARE_SWITCH_H_
