// RegionController: one PoP-region's autonomous control plane inside the
// federation. It owns a full Orchestrator (fleet + journal + scheduler) for
// the region's platforms and speaks the federation wire protocol toward the
// FederationCoordinator: it answers digest polls with a gossip-style summary
// of its fleet, accepts deploy hand-offs (running the usual admission →
// SymNet verify → boot path locally), and exports/imports tenants for
// cross-region migration.
//
// Partition tolerance: a region cut off from the coordinator keeps serving —
// deploys, watchdog restarts, and local migrations all run on local state.
// The degraded monitor notices coordinator silence, flags the region
// degraded (queueing digest updates it cannot push), and clears the flag on
// the next contact; the coordinator then reconciles its placement beliefs
// against the region's digest, mirroring Orchestrator::ReconcilePlatform one
// level up.
#ifndef SRC_FEDERATION_REGION_H_
#define SRC_FEDERATION_REGION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/controller/control_channel.h"
#include "src/controller/orchestrator.h"
#include "src/obs/json.h"
#include "src/sim/event_queue.h"
#include "src/topology/network.h"

namespace innet::federation {

// JSON round-trip for a ClientRequest so deploy hand-offs can ride the
// control channel's payload string (keeping src/controller free of any
// federation dependency).
obs::json::Value ClientRequestToJson(const controller::ClientRequest& request);
bool ClientRequestFromJson(const obs::json::Value& value, controller::ClientRequest* out,
                           std::string* error);

// The gossip unit: one region's self-description, assembled from live fleet
// state at poll time. seq is monotonic per region, so the coordinator can
// discard out-of-order (reordered WAN) digests.
struct RegionDigest {
  std::string region;
  uint64_t seq = 0;
  uint64_t generated_ns = 0;
  bool degraded = false;
  size_t platforms = 0;
  size_t tenants = 0;
  uint64_t memory_total = 0;
  uint64_t memory_used = 0;
  std::vector<std::string> live_modules;  // sorted module ids
  // Compact cumulative metrics snapshot for fleet-level aggregation: counters
  // the region reads off its own orchestrator (deploys served, control-plane
  // retry economics, ...), merged coordinator-side by obs::FleetView. A
  // sorted map so the wire encoding is deterministic. Cumulative values (not
  // deltas) ride the wire: the coordinator's seq guard discards duplicated /
  // reordered digests, so deltas are computed exactly once per accepted seq
  // and a WAN duplicate can never double-count.
  std::map<std::string, uint64_t> metric_samples;

  double utilization() const {
    return memory_total == 0 ? 0.0
                             : static_cast<double>(memory_used) / static_cast<double>(memory_total);
  }

  obs::json::Value ToJson() const;
  static bool FromJson(const obs::json::Value& value, RegionDigest* out, std::string* error);
};

class RegionController {
 public:
  // The region owns its orchestrator (and through it a fleet + journal) for
  // `network`'s platforms. `name` is the region's federation-wide identity.
  RegionController(std::string name, topology::Network network, sim::EventQueue* clock);

  const std::string& name() const { return name_; }
  controller::Orchestrator& orchestrator() { return orch_; }
  sim::EventQueue* clock() { return clock_; }

  // Snapshot of the region's current state; bumps the digest sequence.
  RegionDigest BuildDigest();

  // The region's side of the federation protocol. `respond` may fire later
  // (kRegionExport suspends a guest on the simulated clock).
  void HandleRegionOp(const controller::ControlRequest& request, controller::RespondFn respond);

  // Arms the degraded-mode monitor: when no coordinator contact arrives for
  // two simulated seconds, the region flags itself degraded (trace + gauge)
  // and counts the digest updates it would have pushed. Contact clears it.
  // Arming an armed monitor does nothing.
  void EnableDegradedMonitor();
  void NoteCoordinatorContact();

  bool degraded() const { return degraded_; }
  uint64_t queued_digests() const { return queued_digests_; }

 private:
  void DegradedTick();
  void EnterDegraded();
  void ClearDegraded();

  std::string name_;
  sim::EventQueue* clock_;
  controller::Orchestrator orch_;
  uint64_t digest_seq_ = 0;
  bool degraded_monitor_ = false;
  sim::TimeNs last_contact_ns_ = 0;
  bool degraded_ = false;
  uint64_t queued_digests_ = 0;
  // Guards monitor ticks scheduled past this controller's lifetime.
  std::shared_ptr<char> alive_;
};

}  // namespace innet::federation

#endif  // SRC_FEDERATION_REGION_H_
