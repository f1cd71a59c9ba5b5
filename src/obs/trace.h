// EventTracer: a lightweight, bounded log of typed lifecycle events stamped
// with simulated time. Disabled by default; when disabled, Record() is a
// single branch, and hot callers additionally guard with enabled() so they
// never build target strings for a tracer that is off.
//
// Causality: every recorded event is assigned a unique, monotonically
// increasing span id, and carries a parent link to the span it happened
// inside (0 = root). The enclosing span is tracked on an explicit stack:
// SpanScope opens a new span for a synchronous section (admission, verify,
// first-packet handling) and ScopedParent re-enters an existing span from an
// event-queue continuation (a boot completion, a migration finishing). Async
// hand-offs carry the parent id through component state (e.g. a Vm remembers
// the span of its boot-start event), so a deploy or first-packet event
// becomes one connected tree across callbacks.
//
// Times are raw sim::TimeNs values passed by the caller (obs has no
// dependency on the event queue); components without a clock use RecordNow(),
// which reads the registered time source (0 until one is set).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"

namespace innet::obs {

class MetricsRegistry;

enum class EventKind {
  kVmBootStart,
  kVmBootReady,
  kVmBootFailed,
  kVmCrash,
  kVmSuspend,
  kVmResume,
  kVmRestart,
  kVmRetired,
  kFlowFirstPacketMiss,
  kBufferEnqueue,
  kBufferDrop,
  kWatchdogRestart,
  kWatchdogGiveUp,
  kVerifyStart,
  kVerifyFinish,
  kSymexecRun,
  kMigrateStart,
  kMigrateCutover,
  kMigrateAbort,
  kDeployRequest,
  kAdmission,
  kPlacementRanked,
  kDeployCutover,
  kHealthTransition,
  kPacketIngress,
  kElementProcess,
  kPacketEgress,
  kPacketDrop,
  kPostmortemSnapshot,
  kControlSend,
  kControlDrop,
  kControlRetry,
  kControlGiveUp,
  kControlPartition,
  kControlHeal,
  kJournalTransition,
  kRecoveryReplay,
  kAnomaly,
  kReconcile,
  kPlatformReplaced,
  kRegionDigest,
  kRegionDeploy,
  kRegionDegraded,
  kRegionReconcile,
  kRegionMigrate,
  kFleetIncident,
  kPathViolation,
  kSpanEnd,
};

// Stable wire name ("vm_boot_start", ...), used in the JSON dump.
const char* EventKindName(EventKind kind);

// Immutable event text, shared instead of copied: copying an EventText
// bumps a refcount on one const string, so a caller that stamps the same
// target on many events (a sampled packet walk, a VM's flight records)
// builds it once and never again. Empty text is a null pointer and owns
// nothing.
class EventText {
 public:
  EventText() = default;
  EventText(std::string text)
      : text_(text.empty() ? nullptr : std::make_shared<const std::string>(std::move(text))) {}
  EventText(const char* text) : EventText(std::string(text)) {}

  const std::string& str() const { return text_ != nullptr ? *text_ : Empty(); }
  bool empty() const { return text_ == nullptr; }

  friend bool operator==(const EventText& text, std::string_view other) {
    return std::string_view(text.str()) == other;
  }
  friend std::ostream& operator<<(std::ostream& out, const EventText& text) {
    return out << text.str();
  }

 private:
  static const std::string& Empty();

  std::shared_ptr<const std::string> text_;
};

struct TraceEvent {
  uint64_t time_ns = 0;
  EventKind kind = EventKind::kVmBootStart;
  EventText target;     // what the event is about, e.g. "vm:3" or "client7"
  EventText detail;     // free-form qualifier, e.g. "accepted" or "boot_failure"
  int64_t value = 0;    // numeric payload: latency ns, packet count, steps, ...
  uint64_t span = 0;    // this event's own span id (unique per Record call)
  uint64_t parent = 0;  // enclosing span id; 0 = root of a tree
};

class EventTracer {
 public:
  EventTracer() = default;
  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  void Enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Used by RecordNow() for components that have no clock of their own.
  // Pass nullptr to reset (tests must do this when their clock dies before
  // the global tracer does).
  void SetTimeSource(std::function<uint64_t()> now) { now_ = std::move(now); }

  // Records one event and returns its span id (so callers can hand it to a
  // later, asynchronous completion as `parent`). `parent` == 0 means "the
  // current scope" (the span stack's top, or root when the stack is empty).
  // Returns 0 when disabled. Ids are allocated before the capacity check, so
  // parent links stay stable even when the ring drops events.
  uint64_t Record(uint64_t time_ns, EventKind kind, EventText target, EventText detail = {},
                  int64_t value = 0, uint64_t parent = 0);
  uint64_t RecordNow(EventKind kind, EventText target, EventText detail = {}, int64_t value = 0,
                     uint64_t parent = 0) {
    if (!enabled_) {
      return 0;
    }
    return Record(now_ ? now_() : 0, kind, std::move(target), std::move(detail), value, parent);
  }

  // --- Span context stack ---------------------------------------------------
  // Prefer SpanScope / ScopedParent below; these are the raw primitives.
  void PushSpan(uint64_t span_id) { span_stack_.push_back(span_id); }
  void PopSpan() {
    if (!span_stack_.empty()) {
      span_stack_.pop_back();
    }
  }
  uint64_t current_span() const { return span_stack_.empty() ? 0 : span_stack_.back(); }

  // Events beyond the capacity are dropped (and counted), keeping long
  // experiments bounded in memory.
  void set_capacity(size_t capacity) { capacity_ = capacity; }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
    next_span_id_ = 1;
    span_stack_.clear();
  }

  json::Value ToJson() const;
  bool WriteJsonFile(const std::string& path) const;

  // Chrome/Perfetto trace_event export ({"traceEvents": [...]}), loadable in
  // ui.perfetto.dev / chrome://tracing. Span-opening events whose SpanScope
  // end was recorded become complete ("X") slices with a duration; all other
  // events become instants. Targets map to stable thread tracks in order of
  // first appearance. Deterministic like the plain dump.
  json::Value ToPerfettoJson() const;
  bool WritePerfettoFile(const std::string& path) const;

  // Mirrors dropped() into the registry as innet_trace_dropped_total, so
  // silent trace-ring truncation is visible in metrics dumps. Call right
  // before writing the registry out (like InNetPlatform::ExportMetrics).
  void ExportMetrics(MetricsRegistry* registry) const;

  // The process-wide tracer used by all built-in instrumentation.
  static EventTracer& Global();

 private:
  bool enabled_ = false;
  size_t capacity_ = 1u << 20;
  uint64_t dropped_ = 0;
  uint64_t next_span_id_ = 1;
  std::vector<TraceEvent> events_;
  std::vector<uint64_t> span_stack_;
  std::function<uint64_t()> now_;
};

// Shorthand for the global tracer.
inline EventTracer& Tracer() { return EventTracer::Global(); }

// RAII span for a synchronous section: records the opening event (which
// becomes the span), pushes it as the current scope so every Record inside
// auto-parents to it, and records a kSpanEnd event (parented to the span) on
// destruction. Near-free when the tracer is disabled. The end event reuses
// the opening timestamp: a synchronous section cannot advance the simulated
// clock, and control-plane wall time never enters traces.
class SpanScope {
 public:
  SpanScope(EventTracer& tracer, uint64_t time_ns, EventKind kind, EventText target,
            EventText detail = {}, int64_t value = 0)
      : tracer_(&tracer), time_ns_(time_ns) {
    if (!tracer_->enabled()) {
      tracer_ = nullptr;
      return;
    }
    target_ = target;
    id_ = tracer_->Record(time_ns, kind, std::move(target), std::move(detail), value);
    tracer_->PushSpan(id_);
  }
  ~SpanScope() {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->PopSpan();
    tracer_->Record(time_ns_, EventKind::kSpanEnd, std::move(target_), {}, 0, id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // The span id inner events parent to (0 when the tracer is disabled).
  uint64_t id() const { return id_; }

 private:
  EventTracer* tracer_;
  uint64_t time_ns_ = 0;
  uint64_t id_ = 0;
  EventText target_;
};

// RAII re-entry into an existing span from an asynchronous continuation:
// pushes `span_id` as the current scope without recording begin/end events.
// A zero id (tracer was disabled when the span would have opened) is a no-op.
class ScopedParent {
 public:
  ScopedParent(EventTracer& tracer, uint64_t span_id)
      : tracer_(span_id != 0 ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->PushSpan(span_id);
    }
  }
  ~ScopedParent() {
    if (tracer_ != nullptr) {
      tracer_->PopSpan();
    }
  }
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  EventTracer* tracer_;
};

}  // namespace innet::obs

#endif  // SRC_OBS_TRACE_H_
