#include "src/controller/control_channel.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace innet::controller {

const char* ControlOpName(ControlOp op) {
  switch (op) {
    case ControlOp::kInstall:
      return "install";
    case ControlOp::kRebuildShared:
      return "rebuild_shared";
    case ControlOp::kUninstallVm:
      return "uninstall_vm";
    case ControlOp::kUninstallAddr:
      return "uninstall_addr";
    case ControlOp::kSuspend:
      return "suspend";
    case ControlOp::kCancelMigration:
      return "cancel_migration";
    case ControlOp::kSnapshotExport:
      return "snapshot_export";
    case ControlOp::kSnapshotImport:
      return "snapshot_import";
    case ControlOp::kCutover:
      return "cutover";
    case ControlOp::kHealthProbe:
      return "health_probe";
    case ControlOp::kRegionDigest:
      return "region_digest";
    case ControlOp::kRegionDeploy:
      return "region_deploy";
    case ControlOp::kRegionExport:
      return "region_export";
    case ControlOp::kRegionImport:
      return "region_import";
  }
  return "unknown";
}

namespace {

std::string TokenKey(const ControlRequest& request) {
  return request.tenant + '|' + ControlOpName(request.op) + '|' +
         std::to_string(request.attempt_epoch);
}

}  // namespace

// --- ControlEndpoint ---------------------------------------------------------

ControlEndpoint::ControlEndpoint(OpHandler handler) : handler_(std::move(handler)) {
  ctr_deduped_ =
      obs::Registry().GetCounter("innet_control_messages_total", {{"event", "deduped"}});
}

void ControlEndpoint::Deliver(const ControlRequest& request, RespondFn respond) {
  if (request.attempt_epoch == 0) {
    handler_(request, std::move(respond));  // non-mutating: no dedup memory
    return;
  }
  std::string key = TokenKey(request);
  Applied& entry = applied_[key];
  if (entry.done) {
    ++deduped_;
    ctr_deduped_->Increment();
    ControlResponse replay = entry.cached;
    replay.duplicate = true;
    respond(replay);
    return;
  }
  if (entry.executing) {
    // The operation is still running (a deferred suspend, say): queue the
    // replay; the one eventual completion answers everybody.
    ++deduped_;
    ctr_deduped_->Increment();
    entry.waiters.push_back(std::move(respond));
    return;
  }
  entry.executing = true;
  handler_(request, [this, key, respond = std::move(respond)](ControlResponse response) {
    Applied& done_entry = applied_[key];  // re-lookup: the map may have grown
    done_entry.done = true;
    done_entry.cached = response;
    std::vector<RespondFn> waiters = std::move(done_entry.waiters);
    done_entry.waiters.clear();
    respond(response);
    for (RespondFn& waiter : waiters) {
      ControlResponse replay = response;
      replay.duplicate = true;
      waiter(replay);
    }
  });
}

// --- ControlChannel ----------------------------------------------------------

ControlChannel::ControlChannel(sim::EventQueue* clock) : clock_(clock) {
  auto& registry = obs::Registry();
  ctr_sent_ = registry.GetCounter("innet_control_messages_total", {{"event", "sent"}});
  ctr_delivered_ = registry.GetCounter("innet_control_messages_total", {{"event", "delivered"}});
  ctr_dropped_ = registry.GetCounter("innet_control_messages_total", {{"event", "dropped"}});
  ctr_duplicated_ =
      registry.GetCounter("innet_control_messages_total", {{"event", "duplicated"}});
  ctr_partition_dropped_ =
      registry.GetCounter("innet_control_messages_total", {{"event", "partition_dropped"}});
  gauge_partitioned_ = registry.GetGauge("innet_control_partitioned_platforms");
}

void ControlChannel::RegisterEndpoint(const std::string& platform, OpHandler handler) {
  endpoints_[platform] = std::make_unique<ControlEndpoint>(std::move(handler));
}

void ControlChannel::ResetEndpoint(const std::string& platform) {
  endpoints_.erase(platform);
}

void ControlChannel::SetPartitioned(const std::string& platform, bool partitioned) {
  if (partitioned) {
    partitioned_.insert(platform);
  } else {
    partitioned_.erase(platform);
  }
  gauge_partitioned_->Set(static_cast<double>(partitioned_.size()));
}

bool ControlChannel::HasLinkFaults() const {
  return scope_ == FaultScope::kRegion ? faults_->HasRegionFaults() : faults_->HasControlFaults();
}

bool ControlChannel::ShouldDropLink() {
  return scope_ == FaultScope::kRegion ? faults_->ShouldDropRegion() : faults_->ShouldDropControl();
}

bool ControlChannel::ShouldDuplicateLink() {
  return scope_ == FaultScope::kRegion ? faults_->ShouldDuplicateRegion()
                                       : faults_->ShouldDuplicateControl();
}

bool ControlChannel::ShouldReorderLink() {
  return scope_ == FaultScope::kRegion ? faults_->ShouldReorderRegion()
                                       : faults_->ShouldReorderControl();
}

sim::TimeNs ControlChannel::LinkDelay() {
  return scope_ == FaultScope::kRegion ? faults_->RegionDelay() : faults_->ControlDelay();
}

sim::TimeNs ControlChannel::LinkReorderPenalty() {
  return scope_ == FaultScope::kRegion ? faults_->RegionReorderPenalty()
                                       : faults_->ControlReorderPenalty();
}

uint64_t ControlChannel::deduped() const {
  uint64_t total = 0;
  for (const auto& [name, endpoint] : endpoints_) {
    total += endpoint->deduped();
  }
  return total;
}

void ControlChannel::DeliverNow(const std::string& platform, const ControlRequest& request,
                                RespondFn respond) {
  auto it = endpoints_.find(platform);
  if (it == endpoints_.end()) {
    ControlResponse response;
    response.error = "control: no endpoint for platform " + platform;
    respond(std::move(response));
    return;
  }
  ++delivered_;
  ctr_delivered_->Increment();
  it->second->Deliver(request, std::move(respond));
}

RespondFn ControlChannel::ReturnLeg(const std::string& platform, RespondFn on_response) {
  return [this, platform, on_response = std::move(on_response)](ControlResponse response) {
    if (IsPartitioned(platform)) {
      ++partition_dropped_;
      ctr_partition_dropped_->Increment();
      return;
    }
    bool faulty = faults_ != nullptr && HasLinkFaults();
    if (!faulty) {
      on_response(std::move(response));
      return;
    }
    if (ShouldDropLink()) {
      ++dropped_;
      ctr_dropped_->Increment();
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kControlDrop,
                             "platform:" + platform, "response");
      }
      return;
    }
    sim::TimeNs delay = LinkDelay();
    clock_->ScheduleAfter(delay == 0 ? 1 : delay,
                          [on_response, response = std::move(response)]() mutable {
                            on_response(std::move(response));
                          });
  };
}

void ControlChannel::Send(const std::string& platform, const ControlRequest& request,
                          RespondFn on_response) {
  ++sent_;
  ctr_sent_->Increment();
  if (obs::Tracer().enabled()) {
    // A request carrying a propagated trace context parents its channel-level
    // send under that span, so WAN hops show up inside the federated tree.
    obs::Tracer().Record(clock_->now(), obs::EventKind::kControlSend, "platform:" + platform,
                         std::string(ControlOpName(request.op)) + ":" + request.tenant,
                         static_cast<int64_t>(request.attempt_epoch), request.parent_span);
  }
  if (IsPartitioned(platform)) {
    ++partition_dropped_;
    ctr_partition_dropped_->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kControlDrop, "platform:" + platform,
                           "partitioned");
    }
    return;
  }
  bool faulty = faults_ != nullptr && HasLinkFaults();
  if (!faulty) {
    DeliverNow(platform, request, ReturnLeg(platform, std::move(on_response)));
    return;
  }
  if (ShouldDropLink()) {
    ++dropped_;
    ctr_dropped_->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kControlDrop, "platform:" + platform,
                           ControlOpName(request.op));
    }
    return;
  }
  int copies = 1;
  if (ShouldDuplicateLink()) {
    copies = 2;
    ++duplicated_;
    ctr_duplicated_->Increment();
  }
  for (int copy = 0; copy < copies; ++copy) {
    sim::TimeNs delay = LinkDelay();
    if (ShouldReorderLink()) {
      delay += LinkReorderPenalty();
    }
    // Round up to a distinct later event so delivery is always asynchronous
    // under a fault plan (and duplicate copies are distinct events).
    delay = delay + static_cast<sim::TimeNs>(copy) + 1;
    clock_->ScheduleAfter(delay, [this, platform, request, on_response] {
      if (IsPartitioned(platform)) {  // partition began while in flight
        ++partition_dropped_;
        ctr_partition_dropped_->Increment();
        return;
      }
      DeliverNow(platform, request, ReturnLeg(platform, on_response));
    });
  }
}

ControlResponse ControlChannel::DeliverDirect(const std::string& platform,
                                              const ControlRequest& request) {
  ++sent_;
  ctr_sent_->Increment();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kControlSend, "platform:" + platform,
                         std::string(ControlOpName(request.op)) + ":" + request.tenant + ":direct",
                         static_cast<int64_t>(request.attempt_epoch), request.parent_span);
  }
  ControlResponse out;
  out.error = "control: operation did not complete synchronously";
  bool answered = false;
  DeliverNow(platform, request, [&out, &answered](ControlResponse response) {
    out = std::move(response);
    answered = true;
  });
  if (!answered) {
    out.ok = false;
  }
  return out;
}

// --- ControlClient -----------------------------------------------------------

ControlClient::ControlClient(sim::EventQueue* clock, ControlChannel* channel,
                             ControlRetryPolicy policy)
    : clock_(clock), channel_(channel), policy_(policy), alive_(std::make_shared<char>(0)) {
  auto& registry = obs::Registry();
  ctr_retries_ = registry.GetCounter("innet_control_retries_total");
  ctr_timeouts_ = registry.GetCounter("innet_control_timeouts_total");
  ctr_giveups_ = registry.GetCounter("innet_control_giveups_total");
}

void ControlClient::IssueWith(const std::string& platform, ControlRequest request,
                              ControlRetryPolicy policy, RespondFn on_done) {
  auto op = std::make_shared<PendingOp>();
  op->platform = platform;
  op->request = std::move(request);
  op->policy = policy;
  op->on_done = std::move(on_done);
  op->backoff = policy.backoff_base;
  ++inflight_;
  Attempt(op);
}

void ControlClient::Finish(const std::shared_ptr<PendingOp>& op, ControlResponse response) {
  if (op->done) {
    return;
  }
  op->done = true;
  --inflight_;
  if (op->on_done) {
    op->on_done(std::move(response));
  }
}

void ControlClient::Attempt(const std::shared_ptr<PendingOp>& op) {
  ++op->attempts;
  std::weak_ptr<char> watch = alive_;
  channel_->Send(op->platform, op->request, [this, watch, op](ControlResponse response) {
    if (watch.expired()) {
      return;  // the controller crashed while this ack was in flight
    }
    Finish(op, std::move(response));
  });
  if (op->done || channel_->ideal()) {
    // Ideal channels answer exactly once (possibly deferred for a suspend);
    // no timeout machinery is needed and none is scheduled.
    return;
  }
  clock_->ScheduleAfter(op->policy.op_timeout, [this, watch, op] {
    if (watch.expired() || op->done) {
      return;
    }
    ++timeouts_;
    ctr_timeouts_->Increment();
    if (op->attempts >= op->policy.max_attempts) {
      ++giveups_;
      ctr_giveups_->Increment();
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kControlGiveUp,
                             "platform:" + op->platform,
                             std::string(ControlOpName(op->request.op)) + ":" +
                                 op->request.tenant,
                             op->attempts);
      }
      ControlResponse failure;
      failure.gave_up = true;
      failure.error = "control: gave up after " + std::to_string(op->attempts) + " attempts (" +
                      ControlOpName(op->request.op) + " to " + op->platform + ")";
      Finish(op, std::move(failure));
      return;
    }
    ++retries_;
    ctr_retries_->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kControlRetry,
                           "platform:" + op->platform,
                           std::string(ControlOpName(op->request.op)) + ":" + op->request.tenant,
                           op->attempts);
    }
    sim::TimeNs wait = op->backoff;
    double next = static_cast<double>(op->backoff) * op->policy.backoff_factor;
    op->backoff = next > static_cast<double>(op->policy.backoff_cap)
                      ? op->policy.backoff_cap
                      : static_cast<sim::TimeNs>(next);
    clock_->ScheduleAfter(wait == 0 ? 1 : wait, [this, watch, op] {
      if (watch.expired() || op->done) {
        return;
      }
      Attempt(op);
    });
  });
}

}  // namespace innet::controller
