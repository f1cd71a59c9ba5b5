// PlacementEngine: the scheduler's front door, combining admission control,
// the resource ledger, and the active placement policy into one decision:
// "which platforms, in which order, may this request be verified against?"
// The engine never instantiates anything itself — the orchestrator feeds its
// candidate list through the controller, so every placement the engine
// proposes is still SymNet-verified before it exists.
#ifndef SRC_SCHEDULER_ENGINE_H_
#define SRC_SCHEDULER_ENGINE_H_

#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/scheduler/admission.h"
#include "src/scheduler/ledger.h"
#include "src/scheduler/policy.h"

namespace innet::scheduler {

struct PlacementDecision {
  bool admitted = false;
  std::string reject_reason;  // deterministic; set iff !admitted
  // Headroom-filtered candidate platforms in policy order (or exactly the
  // pinned platform when the request pinned one).
  std::vector<std::string> candidates;
};

class PlacementEngine {
 public:
  explicit PlacementEngine(ResourceLedger::Prober prober,
                           PlacementPolicyKind policy = PlacementPolicyKind::kFirstFit);

  ResourceLedger& ledger() { return ledger_; }
  AdmissionController& admission() { return admission_; }
  PlacementPolicyKind policy() const { return policy_; }

  // Quota check, then headroom filter + policy ranking over a fresh ledger
  // snapshot. Bumps innet_scheduler_admission_total{outcome=...}. A pinned
  // request skips ranking (and the headroom filter — the install will fail
  // loudly instead) but not the quota check.
  PlacementDecision Decide(const std::string& client_id, const PlacementRequest& request);

  // Usage bookkeeping once a placement lands / dies; refreshes the
  // per-platform headroom gauges as a side effect.
  void CommitPlacement(const std::string& client_id, uint64_t memory_bytes);
  void ReleasePlacement(const std::string& client_id, uint64_t memory_bytes);

 private:
  ResourceLedger ledger_;
  AdmissionController admission_;
  PlacementPolicyKind policy_;
  obs::Counter* ctr_accepted_ = nullptr;
  obs::Counter* ctr_rejected_ = nullptr;
};

// RAII hold on a tenant's quota reservation. Construction commits the usage
// in the engine's ledger; destruction releases it unless Confirm() was
// called. Deploy/migration paths create one up front and confirm only on
// full success, so every early-exit error path — a failed verify, a lost
// install ack, a crashed boot — releases the reservation exactly once
// instead of relying on hand-written cleanup at each return.
class ReservationGuard {
 public:
  ReservationGuard() = default;
  ReservationGuard(PlacementEngine* engine, std::string client_id, uint64_t memory_bytes)
      : engine_(engine), client_id_(std::move(client_id)), memory_bytes_(memory_bytes) {
    if (engine_ != nullptr) {
      engine_->CommitPlacement(client_id_, memory_bytes_);
    }
  }
  ~ReservationGuard() { Release(); }

  ReservationGuard(const ReservationGuard&) = delete;
  ReservationGuard& operator=(const ReservationGuard&) = delete;
  ReservationGuard(ReservationGuard&& other) noexcept { *this = std::move(other); }
  ReservationGuard& operator=(ReservationGuard&& other) noexcept {
    if (this != &other) {
      Release();
      engine_ = other.engine_;
      client_id_ = std::move(other.client_id_);
      memory_bytes_ = other.memory_bytes_;
      other.engine_ = nullptr;
    }
    return *this;
  }

  // The placement succeeded: keep the usage committed.
  void Confirm() { engine_ = nullptr; }
  // Early exit: give the quota back now (idempotent).
  void Release() {
    if (engine_ != nullptr) {
      engine_->ReleasePlacement(client_id_, memory_bytes_);
      engine_ = nullptr;
    }
  }
  bool active() const { return engine_ != nullptr; }

 private:
  PlacementEngine* engine_ = nullptr;
  std::string client_id_;
  uint64_t memory_bytes_ = 0;
};

}  // namespace innet::scheduler

#endif  // SRC_SCHEDULER_ENGINE_H_
