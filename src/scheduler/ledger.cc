#include "src/scheduler/ledger.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace innet::scheduler {

void ResourceLedger::AddPlatform(const std::string& name) {
  auto pos = std::lower_bound(entries_.begin(), entries_.end(), name,
                              [](const Entry& entry, const std::string& key) {
                                return entry.name < key;
                              });
  if (pos != entries_.end() && pos->name == name) {
    pos->enabled = true;
    return;
  }
  entries_.insert(pos, Entry{name, true});
}

void ResourceLedger::SetAvailable(const std::string& name, bool available) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.enabled = available;
    }
  }
}

std::vector<PlatformResources> ResourceLedger::Snapshot() const {
  std::vector<PlatformResources> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    PlatformResources resources;
    if (!prober_ || !prober_(entry.name, &resources)) {
      continue;  // platform vanished from the data plane: skip, don't invent
    }
    resources.name = entry.name;
    resources.available = resources.available && entry.enabled;
    out.push_back(std::move(resources));
  }
  return out;
}

void ResourceLedger::ExportHeadroomGauges() const {
  for (const PlatformResources& resources : Snapshot()) {
    obs::Registry()
        .GetGauge("innet_scheduler_platform_headroom_bytes", {{"platform", resources.name}})
        ->Set(resources.available ? static_cast<double>(resources.memory_free()) : 0.0);
    obs::Registry()
        .GetGauge("innet_scheduler_platform_utilization", {{"platform", resources.name}})
        ->Set(resources.available ? resources.utilization() : 1.0);
  }
}

}  // namespace innet::scheduler
