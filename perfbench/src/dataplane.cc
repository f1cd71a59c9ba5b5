// Data-plane workloads: dp_bare and dp_observed.
//
// One InNetPlatform with 32 tenants: 24 in dedicated VMs and 8 in two
// consolidated VMs of 4, every tenant running the
// FromNetfront -> CheckIPHeader -> IPFilter -> IPRewriter -> DecIPTTL ->
// ToNetfront chain. A pre-generated trace of 4,096 flows of 64 B UDP/TCP
// packets (IPFilter drops one packet in 8) is pushed back to back through
// HandlePacket on one core; the simulated clock does not move while it runs.
//
//   dp_bare      profiling off, flight recorder on (its default): the switch
//                + VM + graph fast path alone.
//   dp_observed  the same platform and trace with EnableDataplaneProfiling
//                (walks sampled 1 in 64, INT 1 in 16) and obs::Int() on, each
//                tenant's verify-time path digest registered so postcards
//                are attested.
//
// Each tenant receives a multiple of both sampling periods per pass, so
// every pass (and every block of 1,024 packets within it) samples the same
// walks; the untimed copy of each block into a scratch array keeps the
// packet construction out of the measurement.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/symexec/path_digest.h"

namespace perfbench {
namespace {

using innet::Ipv4Address;
using innet::Packet;
namespace plat = innet::platform;

constexpr int kTenants = 32;
constexpr int kDedicated = 24;
constexpr int kPerSharedVm = 4;
constexpr int kFlowsPerTenant = 128;  // 4,096 flows
constexpr int kPacketsPerFlow = 4;
constexpr int kPacketsPerTenant = kFlowsPerTenant * kPacketsPerFlow;
constexpr int kTracePackets = kTenants * kPacketsPerTenant;
constexpr int kBlock = 1024;
constexpr int kBlocks = kTracePackets / kBlock;
constexpr size_t kPacketBytes = 64;
constexpr uint16_t kDeniedPort = 7;
constexpr uint32_t kProfileSampleN = 64;
constexpr uint32_t kIntSampleN = 16;
static_assert(kTracePackets % kBlock == 0);
static_assert(kPacketsPerTenant % kProfileSampleN == 0 && kPacketsPerTenant % kIntSampleN == 0,
              "every graph must see whole sampling periods per pass");

constexpr const char* kChain =
    "FromNetfront() -> CheckIPHeader() -> IPFilter(deny dst port 7, allow udp, allow tcp) -> "
    "IPRewriter(pattern - - 10.0.9.1 - 0 0) -> DecIPTTL() -> ToNetfront();";

Ipv4Address TenantAddr(int tenant) {
  return Ipv4Address(172, 16, 3, static_cast<uint8_t>(10 + tenant));
}

// The trace in send order. Packets are stored once, in generation order;
// `order` maps each trace position to its packet.
struct Trace {
  std::vector<Packet> packets;
  std::vector<uint32_t> order;
  std::vector<uint8_t> deliver;  // per position: delivered (1) or dropped by IPFilter (0)
  std::vector<uint16_t> tenant;  // per position
  std::vector<uint64_t> block_delivered;

  const Packet& at(size_t position) const { return packets[order[position]]; }
};

Packet MakePacket(bool udp, Ipv4Address src, Ipv4Address dst, uint16_t sport, uint16_t dport) {
  Packet bare = udp ? Packet::MakeUdp(src, dst, sport, dport, 0)
                    : Packet::MakeTcp(src, dst, sport, dport, 0x10, 0);
  size_t payload = kPacketBytes - bare.length();
  return udp ? Packet::MakeUdp(src, dst, sport, dport, payload)
             : Packet::MakeTcp(src, dst, sport, dport, 0x10, payload);
}

Trace MakeTrace(uint64_t seed) {
  innet::sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  Trace trace;
  trace.packets.reserve(kTracePackets);
  std::vector<uint8_t> deliver;
  std::vector<uint16_t> tenant;
  for (int t = 0; t < kTenants; ++t) {
    for (int f = 0; f < kFlowsPerTenant; ++f) {
      bool udp = (rng.Next() & 1) != 0;
      Ipv4Address src(static_cast<uint32_t>(0x09000000u | (rng.Next() & 0x00FFFFFFu)));
      uint16_t sport = static_cast<uint16_t>(1024 + rng.Next() % 60000);
      bool denied = f % 8 == 7;
      uint16_t dport = denied ? kDeniedPort : static_cast<uint16_t>(1000 + rng.Next() % 50000);
      for (int k = 0; k < kPacketsPerFlow; ++k) {
        trace.packets.push_back(MakePacket(udp, src, TenantAddr(t), sport, dport));
        deliver.push_back(denied ? 0 : 1);
        tenant.push_back(static_cast<uint16_t>(t));
      }
    }
  }
  trace.order.resize(trace.packets.size());
  for (size_t i = 0; i < trace.order.size(); ++i) {
    trace.order[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = trace.order.size() - 1; i > 0; --i) {
    std::swap(trace.order[i], trace.order[rng.Next() % (i + 1)]);
  }
  trace.block_delivered.assign(kBlocks, 0);
  for (size_t i = 0; i < trace.order.size(); ++i) {
    trace.deliver.push_back(deliver[trace.order[i]]);
    trace.tenant.push_back(tenant[trace.order[i]]);
    trace.block_delivered[i / kBlock] += trace.deliver.back();
  }
  return trace;
}

struct DpPlatform {
  innet::sim::EventQueue clock;
  std::unique_ptr<plat::InNetPlatform> box;
  std::vector<innet::click::Graph*> graph_of;  // per tenant
  std::vector<innet::click::Graph*> graphs;    // distinct guest graphs
  uint64_t delivered = 0;
  bool last_delivered = false;

  void SetFlightRecorder(bool on) {
    box->software_switch().SetFlightRecorder(on ? &box->flight_recorder() : nullptr);
  }
};

std::unique_ptr<DpPlatform> BuildPlatform(bool observed, uint64_t seed, std::string* error) {
  auto p = std::make_unique<DpPlatform>();
  p->box = std::make_unique<plat::InNetPlatform>(&p->clock);
  DpPlatform* raw = p.get();
  p->box->SetEgressHandler([raw](Packet&) {
    ++raw->delivered;
    raw->last_delivered = true;
  });
  std::vector<plat::Vm::VmId> vm_of(kTenants, 0);
  for (int t = 0; t < kDedicated; ++t) {
    vm_of[static_cast<size_t>(t)] = p->box->Install(TenantAddr(t), kChain, error);
    if (vm_of[static_cast<size_t>(t)] == 0) {
      return nullptr;
    }
    p->box->SetVmOwner(vm_of[static_cast<size_t>(t)], "tenant" + std::to_string(t));
  }
  for (int first = kDedicated; first < kTenants; first += kPerSharedVm) {
    std::vector<plat::TenantConfig> group;
    for (int t = first; t < first + kPerSharedVm; ++t) {
      group.push_back(plat::TenantConfig{TenantAddr(t), kChain});
    }
    plat::Vm::VmId shared = p->box->InstallConsolidated(group, error);
    if (shared == 0) {
      return nullptr;
    }
    for (int t = first; t < first + kPerSharedVm; ++t) {
      vm_of[static_cast<size_t>(t)] = shared;
    }
  }
  p->clock.RunUntil(p->clock.now() + 10 * innet::sim::kSecond);
  std::set<plat::Vm::VmId> seen;
  for (int t = 0; t < kTenants; ++t) {
    plat::Vm* vm = p->box->vms().Find(vm_of[static_cast<size_t>(t)]);
    if (vm == nullptr || vm->state() != plat::VmState::kRunning || vm->graph() == nullptr) {
      *error = "tenant " + std::to_string(t) + "'s guest did not boot";
      return nullptr;
    }
    p->graph_of.push_back(vm->graph());
    if (seen.insert(vm->id()).second) {
      p->graphs.push_back(vm->graph());
    }
  }
  if (observed) {
    p->box->EnableDataplaneProfiling(kProfileSampleN, seed, kIntSampleN);
    innet::obs::IntPathDigest digest = innet::symexec::ComputePathDigestFromText(kChain);
    for (int t = 0; t < kTenants; ++t) {
      // Dedicated guests attribute postcards by VM owner, consolidated ones
      // by the tenant's address.
      innet::obs::Int().SetTenantDigest(
          t < kDedicated ? "tenant" + std::to_string(t) : TenantAddr(t).ToString(), digest);
    }
  }
  return p;
}

// What one pass kind does: which platform, through which entry point, with
// which observability switches.
struct Kind {
  const char* name;
  DpPlatform* platform;
  bool walk;       // Graph::InjectAtSource on the tenant's own graph
  bool flight;     // switch flight recorder attached
  bool int_on;     // obs::Int() enabled
  bool traced;     // spans recorded around each block
  MinOfK blocks{kBlocks};
};

struct Counters {
  uint64_t sampled = 0;
  uint64_t postcards = 0;
  uint64_t misses = 0;
  uint64_t buffered = 0;
  uint64_t failed = 0;  // buffer drops + abandoned packets
};

Counters Snapshot(const DpPlatform& p) {
  Counters c;
  for (innet::click::Graph* graph : p.graphs) {
    if (graph->profiler() != nullptr) {
      c.sampled += graph->profiler()->sampled_walks();
    }
  }
  c.postcards = innet::obs::Int().postcards();
  c.misses = p.box->software_switch().missed_count();
  c.buffered = p.box->buffered_count();
  c.failed = p.box->buffer_drops() + p.box->abandoned_packets();
  return c;
}

struct Run {
  const Trace* trace = nullptr;
  std::vector<Packet> scratch = std::vector<Packet>(kBlock);
  MinOfK pkt_ns{kTracePackets};
  ExactCounts exact;
  SpanRecorder spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string oracle_failure;

  void Fail(const std::string& why) {
    if (oracle_failure.empty()) {
      oracle_failure = why;
    }
  }

  void LoadBlock(int b) {
    for (int j = 0; j < kBlock; ++j) {
      scratch[static_cast<size_t>(j)] = trace->at(static_cast<size_t>(b * kBlock + j));
    }
  }

  // Times each block of the trace as one unit.
  void BlockPass(Kind* kind, bool check_counts) {
    DpPlatform& p = *kind->platform;
    p.SetFlightRecorder(kind->flight);
    innet::obs::Int().Enable(kind->int_on);
    Counters before = Snapshot(p);
    uint64_t delivered_before = p.delivered;
    uint64_t allocs = 0;
    for (int b = 0; b < kBlocks; ++b) {
      LoadBlock(b);
      uint64_t d0 = p.delivered;
      int span = kind->traced ? spans.Begin(kind->name, b) : -1;
      uint64_t a0 = AllocCount();
      int64_t t0 = NowNs();
      if (kind->walk) {
        for (int j = 0; j < kBlock; ++j) {
          p.graph_of[trace->tenant[static_cast<size_t>(b * kBlock + j)]]->InjectAtSource(
              scratch[static_cast<size_t>(j)]);
        }
      } else {
        for (int j = 0; j < kBlock; ++j) {
          p.box->HandlePacket(scratch[static_cast<size_t>(j)]);
        }
      }
      int64_t t1 = NowNs();
      allocs += AllocCount() - a0;
      if (kind->traced) {
        spans.End(span);
      }
      kind->blocks.Note(static_cast<size_t>(b), static_cast<double>(t1 - t0));
      if (p.delivered - d0 != trace->block_delivered[static_cast<size_t>(b)]) {
        Fail(std::string(kind->name) + ": block " + std::to_string(b) + " delivered " +
             std::to_string(p.delivered - d0) + " packets, expected " +
             std::to_string(trace->block_delivered[static_cast<size_t>(b)]));
      }
    }
    Finish(kind->name, p, before, delivered_before, check_counts);
    if (check_counts) {
      exact.Check(std::string(kind->name) + ".allocs", allocs);
    }
  }

  // Times every HandlePacket call on its own; checks each packet's fate.
  void LatencyPass(DpPlatform& p, bool check_counts) {
    Counters before = Snapshot(p);
    uint64_t delivered_before = p.delivered;
    for (int b = 0; b < kBlocks; ++b) {
      LoadBlock(b);
      for (int j = 0; j < kBlock; ++j) {
        size_t i = static_cast<size_t>(b * kBlock + j);
        p.last_delivered = false;
        int64_t t0 = NowNs();
        p.box->HandlePacket(scratch[static_cast<size_t>(j)]);
        int64_t t1 = NowNs();
        pkt_ns.Note(i, static_cast<double>(t1 - t0));
        if (p.last_delivered != (trace->deliver[i] != 0)) {
          Fail("packet " + std::to_string(i) + " was " +
               (p.last_delivered ? "delivered" : "dropped") + ", expected the opposite");
        }
      }
    }
    Finish("latency", p, before, delivered_before, check_counts);
  }

  void Finish(const std::string& name, const DpPlatform& p, const Counters& before,
              uint64_t delivered_before, bool check_counts) {
    Counters after = Snapshot(p);
    attempted += kTracePackets;
    failed += after.failed - before.failed;
    if (check_counts) {
      exact.Check(name + ".delivered", p.delivered - delivered_before);
      exact.Check(name + ".sampled_walks", after.sampled - before.sampled);
      exact.Check(name + ".int_postcards", after.postcards - before.postcards);
      exact.Check(name + ".fastpath_misses",
                  (after.misses - before.misses) + (after.buffered - before.buffered));
    }
    // The tracer's ring is bounded; clearing it per pass keeps every pass
    // recording the same sampled walks instead of dropping once it fills.
    innet::obs::Tracer().Clear();
  }
};

double PerPacket(const Kind& kind) { return kind.blocks.Sum() / kTracePackets; }

std::string CheckPlacements(const DpPlatform& p) {
  for (int t = 0; t < kTenants; ++t) {
    if (p.box->InstalledVmFor(TenantAddr(t)) == 0) {
      return "tenant " + std::to_string(t) + " missing from the final placements";
    }
  }
  return "";
}

}  // namespace

int RunDataplane(const Options& options, Report* report) {
  const bool observed = options.workload == "dp_observed";
  if (observed) {
    innet::obs::Tracer().Enable();  // the profiler samples walks only into a live tracer
  }
  Run run;
  std::string error;
  double best_setup_s = 1e300;
  Trace trace;
  // Set-up: trace, platform, boot, digests, one untimed warm-up pass.
  auto timed_setup = [&](Trace* trace_out) -> std::unique_ptr<DpPlatform> {
    int64_t t0 = NowNs();
    Trace fresh = MakeTrace(options.seed);
    std::unique_ptr<DpPlatform> p = BuildPlatform(observed, options.seed, &error);
    if (p != nullptr) {
      innet::obs::Int().Enable(observed);
      for (size_t i = 0; i < fresh.order.size(); ++i) {
        Packet copy = fresh.at(i);
        p->box->HandlePacket(copy);
      }
      innet::obs::Tracer().Clear();
    }
    best_setup_s = std::min(best_setup_s, static_cast<double>(NowNs() - t0) / 1e9);
    if (trace_out != nullptr) {
      *trace_out = std::move(fresh);
    }
    return p;
  };

  std::unique_ptr<DpPlatform> main_platform = timed_setup(&trace);
  if (main_platform == nullptr) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  run.trace = &trace;

  // The platform without profiling, for the observability rows of the
  // traced dp_observed run.
  std::unique_ptr<DpPlatform> bare_platform;
  if (options.trace && observed) {
    bare_platform = BuildPlatform(false, options.seed, &error);
    if (bare_platform == nullptr) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
  }

  DpPlatform* mp = main_platform.get();
  DpPlatform* bp = bare_platform.get();
  // kinds[0] is the workload as configured (flight on, INT on when observed).
  std::vector<std::unique_ptr<Kind>> kinds;
  auto add = [&kinds](const char* name, DpPlatform* p, bool walk, bool flight, bool int_on,
                      bool traced) {
    kinds.push_back(std::unique_ptr<Kind>(new Kind{name, p, walk, flight, int_on, traced}));
    return kinds.back().get();
  };
  Kind* k_switch = add("platform.handle", mp, false, true, observed, false);
  Kind* k_traced = nullptr;
  Kind* k_walk = nullptr;
  Kind* k_noflight = nullptr;
  Kind* k_bare = nullptr;
  Kind* k_bare_flight = nullptr;
  Kind* k_noint = nullptr;
  Kind* k_bare_walk = nullptr;
  Kind* k_noint_walk = nullptr;
  if (options.trace) {
    k_traced = add("platform.handle_traced", mp, false, true, observed, true);
    k_walk = add("click.walk", mp, true, true, observed, true);
    if (observed) {
      k_bare = add("row.bare", bp, false, false, false, true);
      k_bare_flight = add("row.flight", bp, false, true, false, true);
      k_noint = add("row.profiler", mp, false, true, false, true);
      k_bare_walk = add("click.walk_bare", bp, true, true, false, true);
      k_noint_walk = add("click.walk_profiled", mp, true, true, false, true);
    } else {
      k_noflight = add("row.bare", mp, false, false, false, true);
    }
  }

  Deadline deadline(options.seconds);
  const int64_t start_ns = NowNs();
  int setups_done = 1;
  int cycles = 0;
  double peak_rss_mb = 0;
  auto fresh_setup = [&]() {
    std::unique_ptr<DpPlatform> p = timed_setup(nullptr);
    if (p == nullptr) {
      report->Fail("fresh set-up failed: " + error);
    }
    ++setups_done;
  };
  while (!deadline.passed() || cycles < 3) {
    // One cycle runs every pass kind once; the first cycle warms up and is
    // not checked for exact counts.
    bool check = cycles > 0;
    for (auto& kind : kinds) {
      run.BlockPass(kind.get(), check);
    }
    if (!options.trace) {
      innet::obs::Int().Enable(observed);
      mp->SetFlightRecorder(true);
      run.LatencyPass(*mp, check);
    }
    if (cycles == 0) {
      peak_rss_mb = PeakRssMb();
    }
    ++cycles;
    if (!run.oracle_failure.empty()) {
      break;
    }
    while (FreshSetupDue(setups_done, NowNs() - start_ns, options.seconds)) {
      fresh_setup();
    }
  }
  while (setups_done < kFreshSetups && run.oracle_failure.empty()) {
    fresh_setup();
  }

  if (!run.oracle_failure.empty()) {
    report->Fail(run.oracle_failure);
  }
  if (!run.exact.ok()) {
    report->Fail("exact count differs between passes: " + run.exact.mismatch());
  }
  if (innet::obs::Int().violations() != 0) {
    report->Fail(std::to_string(innet::obs::Int().violations()) +
                 " INT path-conformance violations");
  }
  std::string placements = CheckPlacements(*mp);
  if (!placements.empty()) {
    report->Fail(placements);
  }
  report->attempted = run.attempted;
  report->failed = run.failed;
  report->counts_digest = run.exact.Digest();

  const std::string main_name = k_switch->name;
  if (!options.trace) {
    double pps = kTracePackets / (k_switch->blocks.Sum() / 1e9);
    double p50_ns = run.pkt_ns.Percentile(0.5);
    double p99_ns = run.pkt_ns.Percentile(0.99);
    report->Set("setup_s", best_setup_s);
    report->Set("latency_p50_us", p50_ns / 1e3);
    report->Set("latency_tail_us", p99_ns / 1e3);
    report->Set("throughput_per_s", pps);
    report->Set("peak_rss_mb", peak_rss_mb);
    report->Note("mpps", pps / 1e6, "Mpps");
    report->Note("pkt_ns_p50", p50_ns, "ns");
    report->Note("pkt_ns_p99", p99_ns, "ns");
  } else {
    double handle = PerPacket(*k_switch);
    double walk = PerPacket(*k_walk);
    report->Set("click.walk_ns", walk);
    report->Set("platform.switch_ns", handle - walk);
    if (observed) {
      double bare = PerPacket(*k_bare);
      double flight = PerPacket(*k_bare_flight);
      double profiled = PerPacket(*k_noint);
      double bare_walk = PerPacket(*k_bare_walk);
      report->Set("obs.flight_ns", flight - bare);
      report->Set("obs.profiler_ns", profiled - flight);
      report->Set("obs.int_ns", handle - profiled);
      report->Set("row.bare_pkt_ns", bare);
      report->Set("row.flight_pkt_ns", flight);
      report->Set("row.profiler_pkt_ns", profiled);
      report->Set("row.int16_pkt_ns", handle);
      report->Set("ratio.profiled_over_bare", PerPacket(*k_noint_walk) / bare_walk);
      report->Set("ratio.int16_over_bare", walk / bare_walk);
      report->Set("ratio.platform_over_graph", flight / bare_walk);
    } else {
      double bare = PerPacket(*k_noflight);
      report->Set("obs.flight_ns", handle - bare);
      report->Set("row.bare_pkt_ns", bare);
      report->Set("row.flight_pkt_ns", handle);
      report->Set("ratio.platform_over_graph", handle / walk);
    }
    report->Set("click.allocs_per_pkt",
                static_cast<double>(run.exact.Get(main_name + ".allocs")) / kTracePackets);
    report->Set("platform.fastpath_miss_share",
                static_cast<double>(run.exact.Get(main_name + ".fastpath_misses")) /
                    kTracePackets);
    report->Set("obs.sampled_walks",
                static_cast<double>(run.exact.Get(main_name + ".sampled_walks")));
    report->Set("obs.int_postcards",
                static_cast<double>(run.exact.Get(main_name + ".int_postcards")));
    report->Set("obs.int_violations", static_cast<double>(innet::obs::Int().violations()));
    report->Set("bench.trace_overhead_pct", (PerPacket(*k_traced) / handle - 1) * 100);
    if (!options.trace_out.empty() && !run.spans.WriteJson(options.trace_out)) {
      report->Fail("cannot write spans to " + options.trace_out);
    }
  }
  report->Note("cycles", cycles, "count");
  report->Note("set-ups", setups_done, "count");
  return 0;
}

}  // namespace perfbench
