// The orchestrator's write-ahead deploy/migration journal. Every deploy or
// migration writes an intent record *before* any message leaves the
// controller, then advances through
//
//   intent -> verified -> placed -> booted -> cut-over
//
// (terminal failure/abandonment states: rolled_back, superseded, killed).
// The journal object is handed to the orchestrator from outside and
// survives its destruction — it models the controller's persistent WAL. A
// restarted orchestrator replays it (Orchestrator::RecoverFromJournal):
// completed entries rebuild controller/scheduler belief, and each in-flight
// entry is converged by probing the platform for actual guest state —
// completed, rolled back, or re-placed, with re-verification on ambiguity.
//
// The journal also mints the attempt-epochs behind the control channel's
// (tenant, op, epoch) idempotency tokens: a monotonic sequence that survives
// a crash, so a recovered controller can re-send a possibly-executed op
// under its original token (deduped) and can never collide a fresh op with
// a pre-crash token.
#ifndef SRC_CONTROLLER_JOURNAL_H_
#define SRC_CONTROLLER_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/platform/vm.h"

namespace innet::controller {

enum class JournalEntryKind { kDeploy, kMigration };

enum class JournalState {
  kIntent,      // admitted; nothing minted yet
  kVerified,    // module id + address verified and committed in the controller
  kPlaced,      // the platform acked the install/import
  kBooted,      // a health probe saw the guest up
  kCutover,     // steady state: the tenant is live
  kRolledBack,  // undone after a failure (nothing remains)
  kSuperseded,  // replaced by a completed migration
  kKilled,      // torn down (client kill, failover, or lost guest)
};

const char* JournalEntryKindName(JournalEntryKind kind);
const char* JournalStateName(JournalState state);

struct JournalEntry {
  uint64_t id = 0;
  JournalEntryKind kind = JournalEntryKind::kDeploy;
  JournalState state = JournalState::kIntent;
  ClientRequest request;
  // Deploys: the placed module. Migrations: the *new* module once the
  // target placement verified (until then the old module id).
  std::string module_id;
  std::string platform;          // target platform
  std::string source_platform;   // migrations only
  std::string addr;              // dotted module address, "" before verify
  bool sandboxed = false;
  bool consolidated = false;
  bool exported = false;         // migrations: snapshot left the source
  platform::Vm::VmId vm_id = 0;
  // The idempotency epoch of the entry's current in-flight operation, so
  // recovery can re-send it under the same token.
  uint64_t op_epoch = 0;
  // Migrations: the journal id of the deploy entry being replaced.
  uint64_t supersedes = 0;
  // Encoded verify-time path digest for INT conformance attestation; set at
  // kVerified and re-exported on migration/recovery so restarts keep
  // attesting against the exact paths that passed verification.
  std::string path_digest;
  uint64_t updated_ns = 0;
  std::string note;
};

class DeployJournal {
 public:
  DeployJournal();

  // Appends an intent record and returns its id.
  uint64_t Begin(JournalEntryKind kind, const ClientRequest& request, uint64_t now_ns);

  // O(1): ids are dense and appended in order, so an entry sits at its id's
  // distance from the front entry's (which holds once a checkpoint
  // truncates the front, too).
  JournalEntry* Find(uint64_t id);
  const JournalEntry* Find(uint64_t id) const;
  // The newest non-terminal entry carrying `module_id` (nullptr when none).
  // Used to link migrations to the deploy they supersede. Scans only the
  // non-terminal entries.
  JournalEntry* FindLiveByModule(const std::string& module_id);

  // State transition: updates the entry, the transition counters, the
  // in-flight gauge, and the trace stream.
  void Advance(uint64_t id, JournalState state, uint64_t now_ns, const std::string& note = "");
  // Marks the live entry for `module_id` terminal (no-op when none or
  // already terminal). Returns whether an entry changed.
  bool MarkModuleTerminal(const std::string& module_id, JournalState terminal, uint64_t now_ns,
                          const std::string& note);
  // Records that a migration's snapshot left the source platform.
  void MarkExported(uint64_t id, uint64_t now_ns);

  // Monotonic attempt-epoch mint for control-channel idempotency tokens.
  uint64_t MintEpoch() { return ++epoch_seq_; }

  const std::deque<JournalEntry>& entries() const { return entries_; }

  static bool IsTerminal(JournalState state) {
    return state == JournalState::kRolledBack || state == JournalState::kSuperseded ||
           state == JournalState::kKilled;
  }
  static bool IsInFlight(JournalState state) {
    return !IsTerminal(state) && state != JournalState::kCutover;
  }

  size_t InFlightCount() const { return in_flight_; }
  uint64_t transitions() const { return transitions_; }

  obs::json::Value ToJson() const;

 private:
  void RefreshGauge();

  std::deque<JournalEntry> entries_;
  // Ids of the non-terminal entries, ascending, kept by Begin and Advance
  // (the only writers of an entry's state).
  std::vector<uint64_t> live_ids_;
  size_t in_flight_ = 0;  // entries whose state IsInFlight
  uint64_t next_id_ = 1;
  uint64_t epoch_seq_ = 0;
  uint64_t transitions_ = 0;
  obs::Gauge* gauge_inflight_ = nullptr;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_JOURNAL_H_
