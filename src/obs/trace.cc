#include "src/obs/trace.h"

#include <map>

#include "src/obs/metrics.h"

namespace innet::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kVmBootStart: return "vm_boot_start";
    case EventKind::kVmBootReady: return "vm_boot_ready";
    case EventKind::kVmBootFailed: return "vm_boot_failed";
    case EventKind::kVmCrash: return "vm_crash";
    case EventKind::kVmSuspend: return "vm_suspend";
    case EventKind::kVmResume: return "vm_resume";
    case EventKind::kVmRestart: return "vm_restart";
    case EventKind::kVmRetired: return "vm_retired";
    case EventKind::kFlowFirstPacketMiss: return "flow_first_packet_miss";
    case EventKind::kBufferEnqueue: return "buffer_enqueue";
    case EventKind::kBufferDrop: return "buffer_drop";
    case EventKind::kWatchdogRestart: return "watchdog_restart";
    case EventKind::kWatchdogGiveUp: return "watchdog_give_up";
    case EventKind::kVerifyStart: return "verify_start";
    case EventKind::kVerifyFinish: return "verify_finish";
    case EventKind::kSymexecRun: return "symexec_run";
    case EventKind::kMigrateStart: return "migrate_start";
    case EventKind::kMigrateCutover: return "migrate_cutover";
    case EventKind::kMigrateAbort: return "migrate_abort";
    case EventKind::kDeployRequest: return "deploy_request";
    case EventKind::kAdmission: return "admission_decision";
    case EventKind::kPlacementRanked: return "placement_ranked";
    case EventKind::kDeployCutover: return "deploy_cutover";
    case EventKind::kHealthTransition: return "health_transition";
    case EventKind::kPacketIngress: return "packet_ingress";
    case EventKind::kElementProcess: return "element_process";
    case EventKind::kPacketEgress: return "packet_egress";
    case EventKind::kPacketDrop: return "packet_drop";
    case EventKind::kPostmortemSnapshot: return "postmortem_snapshot";
    case EventKind::kControlSend: return "control_send";
    case EventKind::kControlDrop: return "control_drop";
    case EventKind::kControlRetry: return "control_retry";
    case EventKind::kControlGiveUp: return "control_give_up";
    case EventKind::kControlPartition: return "control_partition";
    case EventKind::kControlHeal: return "control_heal";
    case EventKind::kJournalTransition: return "journal_transition";
    case EventKind::kRecoveryReplay: return "recovery_replay";
    case EventKind::kAnomaly: return "anomaly";
    case EventKind::kReconcile: return "reconcile";
    case EventKind::kPlatformReplaced: return "platform_replaced";
    case EventKind::kRegionDigest: return "region_digest";
    case EventKind::kRegionDeploy: return "region_deploy";
    case EventKind::kRegionDegraded: return "region_degraded";
    case EventKind::kRegionReconcile: return "region_reconcile";
    case EventKind::kRegionMigrate: return "region_migrate";
    case EventKind::kFleetIncident: return "fleet_incident";
    case EventKind::kPathViolation: return "path_violation";
    case EventKind::kSpanEnd: return "span_end";
  }
  return "unknown";
}

const std::string& EventText::Empty() {
  static const std::string* empty = new std::string();
  return *empty;
}

uint64_t EventTracer::Record(uint64_t time_ns, EventKind kind, EventText target, EventText detail,
                             int64_t value, uint64_t parent) {
  if (!enabled_) {
    return 0;
  }
  // The id is allocated before the capacity check: a dropped event still
  // consumes its id, so the links of surviving children keep pointing at the
  // same (now truncated) span instead of silently re-binding to a later one.
  uint64_t span = next_span_id_++;
  if (parent == 0) {
    parent = current_span();
  }
  if (events_.size() >= capacity_) {
    ++dropped_;
    return span;
  }
  events_.push_back(
      TraceEvent{time_ns, kind, std::move(target), std::move(detail), value, span, parent});
  return span;
}

json::Value EventTracer::ToJson() const {
  json::Value list = json::Value::Array();
  for (const TraceEvent& event : events_) {
    json::Value entry = json::Value::Object();
    entry.Set("t_ns", event.time_ns);
    entry.Set("kind", EventKindName(event.kind));
    entry.Set("target", event.target.str());
    if (!event.detail.empty()) {
      entry.Set("detail", event.detail.str());
    }
    entry.Set("value", event.value);
    entry.Set("span", event.span);
    entry.Set("parent", event.parent);
    list.Push(std::move(entry));
  }
  json::Value root = json::Value::Object();
  root.Set("dropped", dropped_);
  root.Set("events", std::move(list));
  return root;
}

bool EventTracer::WriteJsonFile(const std::string& path) const {
  return ToJson().WriteFile(path);
}

json::Value EventTracer::ToPerfettoJson() const {
  // A SpanScope records its end as kSpanEnd with parent == the span it
  // closes: collect those to turn span-opening events into "X" slices.
  std::map<uint64_t, uint64_t> span_end_ns;
  for (const TraceEvent& event : events_) {
    if (event.kind == EventKind::kSpanEnd) {
      span_end_ns.emplace(event.parent, event.time_ns);
    }
  }

  // Targets become thread tracks, numbered in order of first appearance so
  // the export is a pure function of the event sequence.
  std::map<std::string, uint64_t> tids;
  json::Value trace_events = json::Value::Array();
  auto tid_for = [&](const std::string& target) {
    auto it = tids.find(target);
    if (it != tids.end()) {
      return it->second;
    }
    uint64_t tid = tids.size() + 1;
    tids.emplace(target, tid);
    json::Value meta = json::Value::Object();
    meta.Set("name", "thread_name");
    meta.Set("ph", "M");
    meta.Set("pid", static_cast<uint64_t>(1));
    meta.Set("tid", tid);
    json::Value args = json::Value::Object();
    args.Set("name", target.empty() ? "(none)" : target);
    meta.Set("args", std::move(args));
    trace_events.Push(std::move(meta));
    return tid;
  };

  for (const TraceEvent& event : events_) {
    if (event.kind == EventKind::kSpanEnd) {
      continue;  // folded into the opening event's duration
    }
    json::Value entry = json::Value::Object();
    entry.Set("name", EventKindName(event.kind));
    entry.Set("cat", "innet");
    entry.Set("pid", static_cast<uint64_t>(1));
    entry.Set("tid", tid_for(event.target.str()));
    entry.Set("ts", static_cast<double>(event.time_ns) / 1e3);  // microseconds
    auto end = span_end_ns.find(event.span);
    if (end != span_end_ns.end()) {
      entry.Set("ph", "X");
      uint64_t dur_ns = end->second >= event.time_ns ? end->second - event.time_ns : 0;
      entry.Set("dur", static_cast<double>(dur_ns) / 1e3);
    } else {
      entry.Set("ph", "i");
      entry.Set("s", "t");
    }
    json::Value args = json::Value::Object();
    args.Set("span", event.span);
    args.Set("parent", event.parent);
    if (!event.detail.empty()) {
      args.Set("detail", event.detail.str());
    }
    args.Set("value", event.value);
    entry.Set("args", std::move(args));
    trace_events.Push(std::move(entry));
  }

  json::Value root = json::Value::Object();
  root.Set("displayTimeUnit", "ms");
  root.Set("traceEvents", std::move(trace_events));
  return root;
}

bool EventTracer::WritePerfettoFile(const std::string& path) const {
  return ToPerfettoJson().WriteFile(path);
}

void EventTracer::ExportMetrics(MetricsRegistry* registry) const {
  registry->GetCounter("innet_trace_dropped_total")->SetTo(dropped_);
}

EventTracer& EventTracer::Global() {
  static EventTracer* tracer = new EventTracer();
  return *tracer;
}

}  // namespace innet::obs
