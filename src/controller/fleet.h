// PlatformFleet: the data-plane side of the control split. It owns the
// InNetPlatform instances and the ControlChannel (with each platform's
// ControlEndpoint and its idempotency/dedup memory), and it outlives the
// Orchestrator — destroying and re-creating the orchestrator against the
// same fleet + DeployJournal is exactly the simulated controller crash that
// RecoverFromJournal converges from: the platforms keep serving installed
// tenants throughout (watchdogs are local), only controller belief is lost.
#ifndef SRC_CONTROLLER_FLEET_H_
#define SRC_CONTROLLER_FLEET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/controller/control_channel.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"

namespace innet::controller {

class PlatformFleet {
 public:
  PlatformFleet(sim::EventQueue* clock, uint64_t platform_memory_bytes);

  // Creates the platform's data-plane instance and registers its control
  // endpoint. Returns the existing instance when already present.
  platform::InNetPlatform* AddPlatform(const std::string& name);
  platform::InNetPlatform* Get(const std::string& name);
  bool Has(const std::string& name) const { return boxes_.count(name) != 0; }
  // Replaces a dead node with a fresh instance. The new node has no dedup
  // memory (its endpoint is reset): pre-failure tokens may re-execute there,
  // which is the correct semantics for a replacement machine.
  platform::InNetPlatform* Replace(const std::string& name);

  std::vector<std::string> Names() const;  // sorted

  ControlChannel& channel() { return channel_; }
  const ControlChannel& channel() const { return channel_; }
  // Attaches the control-plane fault oracle to the channel (nullptr = ideal).
  void SetControlFaults(sim::FaultInjector* injector) { channel_.SetFaultInjector(injector); }

  sim::EventQueue* clock() { return clock_; }

 private:
  // The platform-side control agent: maps each ControlOp onto the local
  // platform API. Looks the box up per delivery so Replace() is safe while
  // messages are in flight.
  void Dispatch(const std::string& name, const ControlRequest& request, RespondFn respond);

  sim::EventQueue* clock_;
  uint64_t platform_memory_bytes_;
  ControlChannel channel_;
  std::map<std::string, std::unique_ptr<platform::InNetPlatform>> boxes_;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_FLEET_H_
