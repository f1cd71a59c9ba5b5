// Control-plane workloads: deploy_churn and verify_deep.
//
// Both run a closed loop with one client: the next request is sent only
// after the previous Orchestrator::Deploy (and its Kill, and the boot events
// it scheduled on the simulated clock) completed. A pass replays one fixed,
// seeded sequence of kRequestsPerPass requests and leaves the installed base
// in the shape it found it, so every pass does the same work.
//
//   deploy_churn  Figure 3 network, operator policy through http_optimizer,
//                 a base of 10 installed tenants. Each accepted request
//                 deploys a new tenant and kills the oldest one. Deploy cost
//                 is dominated by rebuilding and re-checking the snapshot with
//                 every installed module attached.
//   verify_deep   Network::MakeScalingTopology(255) with a base of 4 tenants.
//                 Each accepted request is killed right after its deploy.
//                 Requests branch (IPClassifier, Tee) across the 255-box chain,
//                 so symbolic execution dominates.
//
// One request in 10 must be rejected, either by the security check (a
// spoofed source address) or by the reach check (a requirement the module
// cannot satisfy); the oracle knows which and fails the run on any other
// verdict.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/click/config_parser.h"
#include "src/controller/orchestrator.h"
#include "src/policy/reach_checker.h"
#include "src/policy/reach_spec.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/topology/network.h"

namespace perfbench {
namespace {

using innet::Ipv4Address;
using innet::Ipv4Prefix;
namespace ctl = innet::controller;

constexpr int kRequestsPerPass = 100;
// Installed tenants in deploy_churn. A request index's fastest time is the
// quiet-host cost only if one of its passes met a quiet moment of the host,
// so a pass must be short enough for one run to make many. With 50, a deploy
// takes 25-35 ms and ten runs spread by 26-42%; with 20 (7-10 ms, about 22
// passes in 25 s), the deploy p90 of two sets of ten runs spread by 20% and
// 27%. With 10, the operator-policy re-check through the installed modules
// still makes up about 410 of a linear deploy's 490 engine steps.
constexpr size_t kChurnBase = 10;
constexpr int kDeepBase = 4;
// Requirements of a kSources request. Every other accepted request does about
// the same work, so without a heavier class the deploy p90 is just the
// per-index minima that missed every quiet moment, and it read 1.4x higher
// in some runs than in others. Two requests in ten ask for one reach check
// per upstream source; with these counts they cost about 2.4x the others on
// deploy_churn and 1.8x on verify_deep, so the p90 lands inside that class,
// near its median.
constexpr int kChurnSources = 6;
constexpr int kDeepSources = 2;
constexpr int kDeepMiddleboxes = 255;
constexpr const char* kOperatorPolicy =
    "reach from internet tcp src port 80 -> http_optimizer -> client";

enum class Verdict { kAccept, kRejectSecurity, kRejectReach };

struct Request {
  ctl::ClientRequest request;
  Verdict expect = Verdict::kAccept;
};

enum class Shape { kLinear, kSources, kChecked, kBatcher, kClassifier, kTee, kSpoof, kUnreachable };

constexpr const char* kRewrite5 = "IPRewriter(pattern - - 10.10.0.5 - 0 0)";
constexpr const char* kRewrite6 = "IPRewriter(pattern - - 10.10.0.6 - 0 0)";

Request MakeRequest(int index, Shape shape, int sources) {
  const std::string port = std::to_string(2000 + index);
  const std::string filter = "IPFilter(allow udp dst port " + port + ")";
  Request r;
  ctl::ClientRequest& q = r.request;
  q.client_id = "c" + std::to_string(index);
  q.requester = ctl::RequesterClass::kClient;
  q.requirements = "reach from internet udp -> client dst port " + port;
  q.whitelist = {Ipv4Address::MustParse("10.10.0.5"), Ipv4Address::MustParse("10.10.0.6")};
  q.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  switch (shape) {
    case Shape::kLinear:
      q.click_config = "FromNetfront() -> " + filter + " -> " + kRewrite5 + " -> ToNetfront();";
      break;
    case Shape::kSources:
      // A linear module that must be reachable from each of `sources`
      // upstream services, one requirement per source port.
      q.click_config = "FromNetfront() -> " + filter + " -> " + kRewrite6 + " -> ToNetfront();";
      q.requirements.clear();
      for (int k = 0; k < sources; ++k) {
        q.requirements += "reach from internet udp src port " + std::to_string(5000 + k) +
                          " -> client dst port " + port + " ";
      }
      break;
    case Shape::kChecked:
      q.click_config = "FromNetfront() -> CheckIPHeader() -> " + filter + " -> " + kRewrite5 +
                       " -> DecIPTTL() -> ToNetfront();";
      break;
    case Shape::kBatcher:
      q.click_config = "FromNetfront() -> " + filter + " -> " + kRewrite5 +
                       " -> TimedUnqueue(1, 100) -> ToNetfront();";
      break;
    case Shape::kClassifier:
      q.click_config = "FromNetfront() -> c :: IPClassifier(udp dst port " + port +
                       ", tcp dst port " + port + ", -); out :: ToNetfront(); c[0] -> " +
                       kRewrite5 + " -> out; c[1] -> " + kRewrite6 +
                       " -> out; c[2] -> Discard();";
      break;
    case Shape::kTee:
      q.click_config = "FromNetfront() -> " + filter + " -> t :: Tee(2); out :: ToNetfront(); " +
                       "t[0] -> " + kRewrite5 + " -> out; t[1] -> " + kRewrite6 + " -> out;";
      break;
    case Shape::kSpoof:
      q.click_config = "FromNetfront() -> " + filter +
                       " -> IPRewriter(pattern 6.6.6.6 - 10.10.0.5 - 0 0) -> ToNetfront();";
      r.expect = Verdict::kRejectSecurity;
      break;
    case Shape::kUnreachable:
      q.click_config = "FromNetfront() -> " + filter + " -> " + kRewrite5 + " -> ToNetfront();";
      q.requirements = "reach from internet udp -> client dst port " + std::to_string(9000 + index);
      r.expect = Verdict::kRejectReach;
      break;
  }
  return r;
}

struct Sequence {
  std::vector<Request> pass;  // one pass, in order
  std::vector<Request> base;  // installed at set-up, oldest first
};

// Requests come in groups of ten with a fixed mix, so every seed (which
// only orders each group and picks the rejection kind) asks for the same
// amount of work: nine accepted requests in seeded order, then one that must
// be rejected, alternating between the security and the reach check.
Sequence MakeSequence(bool churn, uint64_t seed) {
  const int sources = churn ? kChurnSources : kDeepSources;
  static const Shape kChurnMix[] = {Shape::kSources, Shape::kSources, Shape::kLinear,
                                    Shape::kLinear,  Shape::kChecked, Shape::kChecked,
                                    Shape::kBatcher, Shape::kBatcher, Shape::kBatcher};
  static const Shape kDeepMix[] = {Shape::kSources,    Shape::kSources,    Shape::kClassifier,
                                   Shape::kClassifier, Shape::kClassifier, Shape::kTee,
                                   Shape::kTee,        Shape::kTee,        Shape::kBatcher};
  innet::sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + (churn ? 1 : 2));
  const bool spoof_first = (rng.Next() & 1) != 0;
  Sequence seq;
  for (int group = 0; group < kRequestsPerPass / 10; ++group) {
    std::vector<Shape> mix(std::begin(churn ? kChurnMix : kDeepMix),
                           std::end(churn ? kChurnMix : kDeepMix));
    for (size_t i = mix.size() - 1; i > 0; --i) {
      std::swap(mix[i], mix[rng.Next() % (i + 1)]);
    }
    mix.push_back((group % 2 == 0) == spoof_first ? Shape::kSpoof : Shape::kUnreachable);
    for (Shape shape : mix) {
      seq.pass.push_back(MakeRequest(static_cast<int>(seq.pass.size()), shape, sources));
    }
  }
  if (churn) {
    // The base is what a pass leaves behind: its last kChurnBase accepted
    // requests, oldest first. Every pass then starts from the same shape.
    for (const Request& r : seq.pass) {
      if (r.expect == Verdict::kAccept) {
        seq.base.push_back(r);
      }
    }
    seq.base.erase(seq.base.begin(), seq.base.end() - static_cast<long>(kChurnBase));
  } else {
    for (int i = 0; i < kDeepBase; ++i) {
      seq.base.push_back(MakeRequest(1000 + i, Shape::kLinear, sources));
    }
  }
  return seq;
}

// One orchestrator with its installed base.
struct Setup {
  innet::sim::EventQueue clock;
  std::unique_ptr<ctl::Orchestrator> orch;
  std::deque<std::string> live;  // installed module ids, oldest first
};

bool RunClock(innet::sim::EventQueue* clock) {
  clock->Run(1u << 20);
  return clock->empty();
}

std::unique_ptr<Setup> BuildSetup(bool churn, const Sequence& seq, std::string* error) {
  auto setup = std::make_unique<Setup>();
  innet::topology::Network network = churn
                                         ? innet::topology::Network::MakeFigure3()
                                         : innet::topology::Network::MakeScalingTopology(
                                               kDeepMiddleboxes);
  setup->orch = std::make_unique<ctl::Orchestrator>(std::move(network), &setup->clock);
  if (churn && !setup->orch->AddOperatorPolicy(kOperatorPolicy, error)) {
    return nullptr;
  }
  for (const Request& r : seq.base) {
    ctl::OrchestratedDeploy d = setup->orch->Deploy(r.request);
    if (!d.outcome.accepted) {
      *error = "base tenant " + r.request.client_id + " rejected: " + d.outcome.reason;
      return nullptr;
    }
    setup->live.push_back(d.outcome.module_id);
    if (!RunClock(&setup->clock)) {
      *error = "simulated clock did not drain after a base deploy";
      return nullptr;
    }
  }
  return setup;
}

// What the oracle says about one outcome: "" when it matches the expected
// verdict; otherwise why not. Capacity refusals are reported separately.
std::string CheckVerdict(const Request& r, const ctl::OrchestratedDeploy& d, bool* capacity) {
  const std::string& reason = d.outcome.reason;
  bool security = reason.rfind("security:", 0) == 0;
  bool reach = reason.rfind("on ", 0) == 0;
  *capacity = !d.outcome.accepted && !security && !reach;
  if (*capacity) {
    return "";
  }
  switch (r.expect) {
    case Verdict::kAccept:
      return d.outcome.accepted ? "" : "expected accept, got: " + reason;
    case Verdict::kRejectSecurity:
      return security ? "" : "expected a security rejection, got: " + reason;
    case Verdict::kRejectReach:
      return reach ? "" : "expected a reach rejection, got: " + reason;
  }
  return "unknown verdict";
}

// Per-index estimators and exact counts of one run.
struct Measure {
  MinOfK deploy_ns{kRequestsPerPass};
  MinOfK cycle_ns{kRequestsPerPass};
  // Traced-pass layers.
  MinOfK traced_deploy_ns{kRequestsPerPass};
  MinOfK parse_ns{kRequestsPerPass};
  MinOfK outside_build_ns{kRequestsPerPass};
  MinOfK reach_ns{kRequestsPerPass};
  MinOfK build_ms{kRequestsPerPass};
  MinOfK check_ms{kRequestsPerPass};
  MinOfK orchestrate_ms{kRequestsPerPass};
  MinOfK kill_ns{kRequestsPerPass};
  MinOfK reject_ns{kRequestsPerPass};
  // Allocations inside Deploy. The deploy journal never compacts, so its
  // deque index occasionally grows during a deploy and adds an allocation
  // to that one request; the per-index minimum over passes is the count of
  // the deploy itself, and it repeats exactly across runs of one seed.
  MinOfK deploy_allocs{kRequestsPerPass};
  ExactCounts exact;
  SpanRecorder spans;
  uint64_t attempted = 0;
  uint64_t capacity_refusals = 0;
  std::string oracle_failure;  // the first one

  void Fail(const std::string& why) {
    if (oracle_failure.empty()) {
      oracle_failure = why;
    }
  }
};

// One pass over the sequence. A traced pass also times each layer from the
// outside (the request text through ConfigGraph::Parse, the installed base
// through BuildVerificationGraph, the standing policy `reach_probes[i]`
// through ReachChecker::Check) and records a span around every call.
void RunPass(bool churn, bool traced, bool check_counts, const Sequence& seq,
             const std::vector<innet::policy::ReachSpec>& reach_probes, Setup* setup,
             Measure* m) {
  ctl::Orchestrator& orch = *setup->orch;
  uint64_t pass_nodes = 0;
  for (size_t i = 0; i < seq.pass.size(); ++i) {
    const Request& r = seq.pass[i];
    const int64_t unit = static_cast<int64_t>(i);
    int root = -1;
    if (traced) {
      root = m->spans.Begin("request", unit);
      int span = m->spans.Begin("click.parse", unit, root);
      std::string error;
      auto parsed = innet::click::ConfigGraph::Parse(r.request.click_config, &error);
      m->parse_ns.Note(i, m->spans.End(span));
      if (!parsed) {
        m->Fail("request " + std::to_string(i) + " does not parse: " + error);
      }
      span = m->spans.Begin("symexec.build_outside", unit, root);
      innet::symexec::SymGraph graph = orch.controller().BuildVerificationGraph(nullptr, &error);
      m->outside_build_ns.Note(i, m->spans.End(span));
      pass_nodes += graph.node_count();
      // The same hop budget Controller::Deploy gives its checker.
      innet::symexec::EngineOptions engine;
      engine.max_hops = std::max(256, static_cast<int>(graph.node_count()) * 2 + 64);
      innet::policy::ReachChecker checker(&graph, orch.controller().MakeResolver(nullptr), engine);
      span = m->spans.Begin("policy.reach", unit, root);
      checker.Check(reach_probes[i]);
      m->reach_ns.Note(i, m->spans.End(span));
    }

    int64_t t0 = NowNs();
    int deploy_span = traced ? m->spans.Begin("controller.deploy", unit, root) : -1;
    uint64_t a0 = AllocCount();
    ctl::OrchestratedDeploy d = orch.Deploy(r.request);
    uint64_t a1 = AllocCount();
    int64_t t1 = NowNs();
    if (traced) {
      m->spans.End(deploy_span);
    }
    double deploy_ns = static_cast<double>(t1 - t0);
    m->deploy_allocs.Note(i, static_cast<double>(a1 - a0));
    ++m->attempted;

    bool capacity = false;
    std::string wrong = CheckVerdict(r, d, &capacity);
    if (!wrong.empty()) {
      m->Fail("request " + std::to_string(i) + " (" + r.request.client_id + "): " + wrong);
    }
    if (capacity) {
      ++m->capacity_refusals;
    }
    if (check_counts) {
      m->exact.Check("steps." + std::to_string(i), d.outcome.engine_steps);
      m->exact.Check("accepted." + std::to_string(i), d.outcome.accepted ? 1 : 0);
    }

    if (traced) {
      m->traced_deploy_ns.Note(i, deploy_ns);
      m->build_ms.Note(i, d.outcome.model_build_ms);
      m->check_ms.Note(i, d.outcome.check_ms);
      m->orchestrate_ms.Note(i, deploy_ns / 1e6 - d.outcome.model_build_ms - d.outcome.check_ms);
      if (!d.outcome.accepted) {
        m->reject_ns.Note(i, deploy_ns);
      }
    } else {
      m->deploy_ns.Note(i, deploy_ns);
    }

    if (d.outcome.accepted) {
      // Churn retires the oldest tenant; verify_deep retires the new one.
      setup->live.push_back(d.outcome.module_id);
      std::string victim;
      if (churn) {
        victim = setup->live.front();
        setup->live.pop_front();
      } else {
        victim = setup->live.back();
        setup->live.pop_back();
      }
      int kill_span = traced ? m->spans.Begin("controller.kill", unit, root) : -1;
      int64_t k0 = NowNs();
      bool killed = orch.Kill(victim);
      int64_t k1 = NowNs();
      if (traced) {
        m->spans.End(kill_span);
        m->kill_ns.Note(i, static_cast<double>(k1 - k0));
      }
      if (!killed) {
        m->Fail("kill of " + victim + " failed");
      }
    }
    int clock_span = traced ? m->spans.Begin("sim.clock", unit, root) : -1;
    if (!RunClock(&setup->clock)) {
      m->Fail("simulated clock did not drain");
    }
    if (traced) {
      m->spans.End(clock_span);
      m->spans.End(root);
    } else {
      m->cycle_ns.Note(i, static_cast<double>(NowNs() - t0));
    }
  }
  if (check_counts && traced) {
    m->exact.Check("graph_nodes", pass_nodes);
  }
}

// Every live module the orchestrator placed must be one the driver believes
// is installed, and vice versa.
std::string CheckPlacements(const Setup& setup, size_t expected) {
  if (setup.live.size() != expected) {
    return "installed base drifted to " + std::to_string(setup.live.size()) + " tenants";
  }
  if (setup.orch->placement_count() != expected) {
    return "orchestrator holds " + std::to_string(setup.orch->placement_count()) +
           " placements, expected " + std::to_string(expected);
  }
  for (const std::string& module_id : setup.live) {
    if (!setup.orch->HasPlacement(module_id)) {
      return "tenant " + module_id + " missing from the final placements";
    }
  }
  return "";
}

}  // namespace

int RunControl(const Options& options, Report* report) {
  const bool churn = options.workload == "deploy_churn";
  const size_t base_size = churn ? kChurnBase : static_cast<size_t>(kDeepBase);

  // Set-up: topology, orchestrator, installed base. Timed as a whole; the
  // first one is kept, the others are fresh set-ups spread over the run.
  double best_setup_s = 1e300;
  std::string error;
  auto timed_setup = [&](Sequence* seq_out) -> std::unique_ptr<Setup> {
    int64_t t0 = NowNs();
    Sequence seq = MakeSequence(churn, options.seed);
    std::unique_ptr<Setup> setup = BuildSetup(churn, seq, &error);
    double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    best_setup_s = std::min(best_setup_s, seconds);
    if (seq_out != nullptr) {
      *seq_out = std::move(seq);
    }
    return setup;
  };

  Sequence seq;
  std::unique_ptr<Setup> setup = timed_setup(&seq);
  if (setup == nullptr) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<innet::policy::ReachSpec> reach_probes;
  for (const Request& r : seq.pass) {
    std::string statement =
        churn ? kOperatorPolicy
              : innet::policy::SplitReachStatements(r.request.requirements).front();
    auto spec = innet::policy::ReachSpec::Parse(statement, &error);
    if (!spec) {
      std::fprintf(stderr, "perfbench: bad reach statement: %s\n", error.c_str());
      return 1;
    }
    reach_probes.push_back(std::move(*spec));
  }

  Measure m;
  Deadline deadline(options.seconds);
  const int64_t start_ns = NowNs();
  int setups_done = 1;
  int passes = 0;
  double peak_rss_mb = 0;
  while (!deadline.passed() || passes < 2) {
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured inside one run.
    bool traced = options.trace && passes % 2 == 1;
    RunPass(churn, traced, /*check_counts=*/passes > 0, seq, reach_probes, setup.get(), &m);
    if (passes == 0) {
      peak_rss_mb = PeakRssMb();
    }
    ++passes;
    if (!m.oracle_failure.empty()) {
      break;
    }
    while (FreshSetupDue(setups_done, NowNs() - start_ns, options.seconds)) {
      if (timed_setup(nullptr) == nullptr) {
        report->Fail("fresh set-up failed: " + error);
      }
      ++setups_done;
    }
  }
  while (setups_done < kFreshSetups && m.oracle_failure.empty()) {
    if (timed_setup(nullptr) == nullptr) {
      report->Fail("fresh set-up failed: " + error);
    }
    ++setups_done;
  }

  if (!m.oracle_failure.empty()) {
    report->Fail(m.oracle_failure);
  }
  if (!m.exact.ok()) {
    report->Fail("exact count differs between passes: " + m.exact.mismatch());
  }
  std::string placements = CheckPlacements(*setup, base_size);
  if (!placements.empty()) {
    report->Fail(placements);
  }
  report->attempted = m.attempted;
  report->failed = m.capacity_refusals;
  m.exact.Check("allocs.deploy_min", static_cast<uint64_t>(m.deploy_allocs.Sum()));
  report->counts_digest = m.exact.Digest();

  uint64_t steps = 0;
  for (int i = 0; i < kRequestsPerPass; ++i) {
    steps += m.exact.Get("steps." + std::to_string(i));
  }
  if (!options.trace) {
    double p50_ms = m.deploy_ns.Percentile(0.5) / 1e6;
    double p90_ms = m.deploy_ns.Percentile(0.9) / 1e6;
    double per_s = kRequestsPerPass / (m.cycle_ns.Sum() / 1e9);
    report->Set("setup_s", best_setup_s);
    report->Set("latency_p50_us", p50_ms * 1e3);
    report->Set("latency_tail_us", p90_ms * 1e3);
    report->Set("throughput_per_s", per_s);
    report->Set("peak_rss_mb", peak_rss_mb);
    report->Note("deploy_p50_ms", p50_ms, "ms");
    report->Note("deploy_p90_ms", p90_ms, "ms");
    report->Note("deploys_per_s", per_s, "1/s");
  } else {
    double check_sum_ms = m.check_ms.Sum();
    report->Set("click.parse_us", m.parse_ns.Percentile(0.5) / 1e3);
    report->Set("symexec.build_ms", m.build_ms.Percentile(0.5));
    report->Set("symexec.build_outside_ms", m.outside_build_ns.Percentile(0.5) / 1e6);
    report->Set("symexec.graph_nodes",
                static_cast<double>(m.exact.Get("graph_nodes")) / kRequestsPerPass);
    report->Set("symexec.check_ms", m.check_ms.Percentile(0.5));
    report->Set("symexec.engine_steps", static_cast<double>(steps));
    report->Set("symexec.us_per_step", steps == 0 ? 0 : check_sum_ms * 1e3 / steps);
    report->Set("policy.reach_ms", m.reach_ns.Percentile(0.5) / 1e6);
    report->Set("controller.orchestrate_ms", m.orchestrate_ms.Percentile(0.5));
    report->Set("controller.kill_ms", m.kill_ns.Percentile(0.5) / 1e6);
    report->Set("controller.reject_ms_p50", m.reject_ns.Percentile(0.5) / 1e6);
    report->Set("controller.allocs_per_deploy",
                m.deploy_allocs.Sum() / kRequestsPerPass);
    double plain = m.deploy_ns.Percentile(0.5);
    double traced = m.traced_deploy_ns.Percentile(0.5);
    report->Set("bench.trace_overhead_pct", plain > 0 ? (traced / plain - 1) * 100 : 0);
    if (!options.trace_out.empty() && !m.spans.WriteJson(options.trace_out)) {
      report->Fail("cannot write spans to " + options.trace_out);
    }
  }
  report->Note("passes", passes, "count");
  report->Note("set-ups", setups_done, "count");
  return 0;
}

}  // namespace perfbench
