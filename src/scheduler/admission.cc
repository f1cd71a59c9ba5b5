#include "src/scheduler/admission.h"

namespace innet::scheduler {

TenantQuota AdmissionController::QuotaFor(const std::string& client_id) const {
  auto it = quotas_.find(client_id);
  return it == quotas_.end() ? TenantQuota{} : it->second;  // unset: unlimited
}

AdmissionController::Usage AdmissionController::UsageFor(const std::string& client_id) const {
  auto it = usage_.find(client_id);
  return it == usage_.end() ? Usage{} : it->second;
}

bool AdmissionController::Admit(const std::string& client_id, uint64_t memory_bytes,
                                std::string* reason) const {
  TenantQuota quota = QuotaFor(client_id);
  Usage usage = UsageFor(client_id);
  if (usage.modules + 1 > quota.max_modules) {
    if (reason != nullptr) {
      *reason = "admission: client " + client_id + " at module quota (" +
                std::to_string(usage.modules) + " of " + std::to_string(quota.max_modules) + ")";
    }
    return false;
  }
  if (usage.memory_bytes + memory_bytes > quota.max_memory_bytes) {
    if (reason != nullptr) {
      *reason = "admission: client " + client_id + " at memory quota (" +
                std::to_string(usage.memory_bytes) + " + " + std::to_string(memory_bytes) +
                " > " + std::to_string(quota.max_memory_bytes) + " bytes)";
    }
    return false;
  }
  return true;
}

void AdmissionController::Commit(const std::string& client_id, uint64_t memory_bytes) {
  Usage& usage = usage_[client_id];
  ++usage.modules;
  usage.memory_bytes += memory_bytes;
}

void AdmissionController::Release(const std::string& client_id, uint64_t memory_bytes) {
  auto it = usage_.find(client_id);
  if (it == usage_.end()) {
    return;
  }
  Usage& usage = it->second;
  if (usage.modules > 0) {
    --usage.modules;
  }
  usage.memory_bytes = usage.memory_bytes >= memory_bytes ? usage.memory_bytes - memory_bytes : 0;
  if (usage.modules == 0 && usage.memory_bytes == 0) {
    usage_.erase(it);
  }
}

}  // namespace innet::scheduler
