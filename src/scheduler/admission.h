// Admission control: per-tenant quotas checked before any verification or
// placement work is spent. Rejections carry a deterministic, stable reason
// string so clients (and tests) can tell quota exhaustion from placement
// failure from verification failure.
#ifndef SRC_SCHEDULER_ADMISSION_H_
#define SRC_SCHEDULER_ADMISSION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

namespace innet::scheduler {

struct TenantQuota {
  size_t max_modules = std::numeric_limits<size_t>::max();
  uint64_t max_memory_bytes = std::numeric_limits<uint64_t>::max();
};

class AdmissionController {
 public:
  void SetQuota(const std::string& client_id, TenantQuota quota) {
    quotas_[client_id] = quota;
  }

  // Would one more module of `memory_bytes` keep `client_id` within quota?
  // Returns false and fills *reason on rejection. Pure check: no usage is
  // reserved (Commit does that, after the placement actually lands).
  bool Admit(const std::string& client_id, uint64_t memory_bytes, std::string* reason) const;

  // Usage bookkeeping, driven by the orchestrator on placement and kill.
  void Commit(const std::string& client_id, uint64_t memory_bytes);
  void Release(const std::string& client_id, uint64_t memory_bytes);

  struct Usage {
    size_t modules = 0;
    uint64_t memory_bytes = 0;
  };
  Usage UsageFor(const std::string& client_id) const;

 private:
  TenantQuota QuotaFor(const std::string& client_id) const;

  std::unordered_map<std::string, TenantQuota> quotas_;
  std::unordered_map<std::string, Usage> usage_;
};

}  // namespace innet::scheduler

#endif  // SRC_SCHEDULER_ADMISSION_H_
