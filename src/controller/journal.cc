#include "src/controller/journal.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace innet::controller {

const char* JournalEntryKindName(JournalEntryKind kind) {
  switch (kind) {
    case JournalEntryKind::kDeploy:
      return "deploy";
    case JournalEntryKind::kMigration:
      return "migration";
  }
  return "unknown";
}

const char* JournalStateName(JournalState state) {
  switch (state) {
    case JournalState::kIntent:
      return "intent";
    case JournalState::kVerified:
      return "verified";
    case JournalState::kPlaced:
      return "placed";
    case JournalState::kBooted:
      return "booted";
    case JournalState::kCutover:
      return "cutover";
    case JournalState::kRolledBack:
      return "rolled_back";
    case JournalState::kSuperseded:
      return "superseded";
    case JournalState::kKilled:
      return "killed";
  }
  return "unknown";
}

DeployJournal::DeployJournal() {
  gauge_inflight_ = obs::Registry().GetGauge("innet_journal_inflight");
  gauge_inflight_->Set(0);
}

uint64_t DeployJournal::Begin(JournalEntryKind kind, const ClientRequest& request,
                              uint64_t now_ns) {
  JournalEntry entry;
  entry.id = next_id_++;
  entry.kind = kind;
  entry.request = request;
  entry.module_id = "";
  entry.updated_ns = now_ns;
  live_ids_.push_back(entry.id);
  ++in_flight_;
  entries_.push_back(std::move(entry));
  ++transitions_;
  obs::Registry()
      .GetCounter("innet_journal_transitions_total", {{"state", "intent"}})
      ->Increment();
  RefreshGauge();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(now_ns, obs::EventKind::kJournalTransition,
                         "journal:" + std::to_string(entries_.back().id),
                         std::string(JournalEntryKindName(kind)) + ":intent");
  }
  return entries_.back().id;
}

JournalEntry* DeployJournal::Find(uint64_t id) {
  if (entries_.empty() || id < entries_.front().id ||
      id - entries_.front().id >= entries_.size()) {
    return nullptr;
  }
  return &entries_[id - entries_.front().id];
}

const JournalEntry* DeployJournal::Find(uint64_t id) const {
  return const_cast<DeployJournal*>(this)->Find(id);
}

JournalEntry* DeployJournal::FindLiveByModule(const std::string& module_id) {
  for (auto it = live_ids_.rbegin(); it != live_ids_.rend(); ++it) {
    JournalEntry* entry = Find(*it);
    if (entry->module_id == module_id) {
      return entry;  // newest wins
    }
  }
  return nullptr;
}

void DeployJournal::Advance(uint64_t id, JournalState state, uint64_t now_ns,
                            const std::string& note) {
  JournalEntry* entry = Find(id);
  if (entry == nullptr) {
    return;
  }
  if (IsInFlight(state) && !IsInFlight(entry->state)) {
    ++in_flight_;
  } else if (!IsInFlight(state) && IsInFlight(entry->state)) {
    --in_flight_;
  }
  if (IsTerminal(entry->state) != IsTerminal(state)) {
    auto at = std::lower_bound(live_ids_.begin(), live_ids_.end(), id);
    if (IsTerminal(state)) {
      live_ids_.erase(at);
    } else {
      live_ids_.insert(at, id);
    }
  }
  entry->state = state;
  entry->updated_ns = now_ns;
  if (!note.empty()) {
    entry->note = note;
  }
  ++transitions_;
  obs::Registry()
      .GetCounter("innet_journal_transitions_total", {{"state", JournalStateName(state)}})
      ->Increment();
  RefreshGauge();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(now_ns, obs::EventKind::kJournalTransition,
                         "journal:" + std::to_string(id),
                         (entry->module_id.empty() ? std::string() : entry->module_id + ":") +
                             JournalStateName(state));
  }
}

bool DeployJournal::MarkModuleTerminal(const std::string& module_id, JournalState terminal,
                                       uint64_t now_ns, const std::string& note) {
  JournalEntry* entry = FindLiveByModule(module_id);
  if (entry == nullptr) {
    return false;
  }
  Advance(entry->id, terminal, now_ns, note);
  return true;
}

void DeployJournal::MarkExported(uint64_t id, uint64_t now_ns) {
  JournalEntry* entry = Find(id);
  if (entry == nullptr) {
    return;
  }
  entry->exported = true;
  entry->updated_ns = now_ns;
}

void DeployJournal::RefreshGauge() {
  gauge_inflight_->Set(static_cast<double>(InFlightCount()));
}

obs::json::Value DeployJournal::ToJson() const {
  obs::json::Value out = obs::json::Value::Array();
  for (const JournalEntry& entry : entries_) {
    obs::json::Value row = obs::json::Value::Object();
    row.Set("id", entry.id);
    row.Set("kind", JournalEntryKindName(entry.kind));
    row.Set("state", JournalStateName(entry.state));
    row.Set("module_id", entry.module_id);
    row.Set("platform", entry.platform);
    if (!entry.source_platform.empty()) {
      row.Set("source_platform", entry.source_platform);
    }
    row.Set("addr", entry.addr);
    row.Set("consolidated", entry.consolidated);
    if (entry.exported) {
      row.Set("exported", true);
    }
    row.Set("vm_id", static_cast<uint64_t>(entry.vm_id));
    row.Set("updated_ns", entry.updated_ns);
    if (!entry.path_digest.empty()) {
      row.Set("path_digest", entry.path_digest);
    }
    if (!entry.note.empty()) {
      row.Set("note", entry.note);
    }
    out.Push(std::move(row));
  }
  return out;
}

}  // namespace innet::controller
