// Allocation budget of the observed data plane: with the profiler (walks
// sampled 1 in 64), in-band telemetry (1 in 16) and attested path digests
// all on, a packet through InNetPlatform::HandlePacket must not touch the
// heap once every chain, tenant and element has been seen. Folded
// attribution, INT hop records and postcard folding work on ids, resolved
// instruments and reused buffers; only a walk promoted to a trace (which
// records named spans) may allocate, and then only its target text: the
// walk's events share it, and element spans share texts built once per
// element. It counts allocations, never wall-clock time, so it is
// deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/obs/int_telemetry.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/symexec/path_digest.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The array and nothrow forms of operator new call this one by default, and
// the unaligned forms of operator delete end in the one below (both kept out
// of line so GCC does not pair an inlined malloc() or free() across them).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace innet {
namespace {

using platform::InNetPlatform;
using platform::TenantConfig;
using platform::Vm;

// Element names as long as real configurations use: past the 15 characters
// a std::string holds without allocating.
constexpr const char* kChain =
    "FromNetfront() -> ingress_header_check :: CheckIPHeader() -> "
    "tenant_port_filter :: IPFilter(deny dst port 7, allow udp, allow tcp) -> "
    "tenant_dst_rewriter :: IPRewriter(pattern - - 10.0.9.1 - 0 0) -> "
    "egress_ttl_decrement :: DecIPTTL() -> ToNetfront();";
constexpr uint32_t kWalkSampleN = 64;
constexpr uint32_t kIntSampleN = 16;
constexpr int kTenants = 4;  // two dedicated guests, two tenants in one shared guest
// Whole sampling periods per guest and pass, so every pass samples the same
// packets: steady state is reached after one pass.
constexpr int kPacketsPerTenant = 64;

Ipv4Address TenantAddr(int tenant) {
  return Ipv4Address(172, 16, 3, static_cast<uint8_t>(10 + tenant));
}

class ObservedPlatform {
 public:
  ObservedPlatform() : box_(&clock_) {
    box_.SetEgressHandler([this](Packet&) { ++delivered_; });
    std::string error;
    for (int t = 0; t < 2; ++t) {
      Vm::VmId vm = box_.Install(TenantAddr(t), kChain, &error);
      EXPECT_NE(vm, 0u) << error;
      box_.SetVmOwner(vm, "tenant" + std::to_string(t));
    }
    std::vector<TenantConfig> shared = {{TenantAddr(2), kChain}, {TenantAddr(3), kChain}};
    EXPECT_NE(box_.InstallConsolidated(shared, &error), 0u) << error;
    clock_.RunUntil(sim::FromSeconds(2));

    box_.EnableDataplaneProfiling(kWalkSampleN, /*seed=*/5, kIntSampleN);
    obs::IntPathDigest digest = symexec::ComputePathDigestFromText(kChain);
    for (int t = 0; t < kTenants; ++t) {
      obs::Int().SetTenantDigest(t < 2 ? "tenant" + std::to_string(t) : TenantAddr(t).ToString(),
                                 digest);
    }
    // The trace, round-robin over tenants; one flow in eight is denied by
    // IPFilter, so drop postcards are part of the steady state too.
    for (int i = 0; i < kPacketsPerTenant; ++i) {
      for (int t = 0; t < kTenants; ++t) {
        auto sport = static_cast<uint16_t>(1024 + i);
        uint16_t dport = i % 8 == 7 ? 7 : 80;
        trace_.push_back(i % 2 == 0 ? Packet::MakeUdp(Ipv4Address(9, 0, 0, 1), TenantAddr(t),
                                                      sport, dport, 22)
                                    : Packet::MakeTcp(Ipv4Address(9, 0, 0, 1), TenantAddr(t),
                                                      sport, dport, 0x10, 10));
      }
    }
    buffers_.resize(trace_.size());
  }

  // One pass over the trace through reused packet buffers (the way a NIC
  // ring reuses its descriptors). `on_packet(allocs, sampled)` sees each
  // packet's allocation count and whether its walk was traced.
  template <typename OnPacket>
  void Pass(OnPacket on_packet) {
    for (size_t i = 0; i < trace_.size(); ++i) {
      buffers_[i] = trace_[i];
    }
    for (Packet& packet : buffers_) {
      uint64_t sampled = SampledWalks();
      uint64_t before = g_allocations.load(std::memory_order_relaxed);
      box_.HandlePacket(packet);
      uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
      on_packet(allocs, SampledWalks() != sampled);
    }
  }

  uint64_t SampledWalks() {
    uint64_t total = 0;
    for (Vm::VmId id : box_.vms().AllIds()) {
      Vm* vm = box_.vms().Find(id);
      if (vm != nullptr && vm->graph() != nullptr && vm->graph()->profiler() != nullptr) {
        total += vm->graph()->profiler()->sampled_walks();
      }
    }
    return total;
  }

  uint64_t delivered() const { return delivered_; }

 private:
  sim::EventQueue clock_;
  InNetPlatform box_;
  std::vector<Packet> trace_;
  std::vector<Packet> buffers_;
  uint64_t delivered_ = 0;
};

class ObsGuard {
 public:
  explicit ObsGuard(bool tracer) {
    obs::Int().Clear();
    obs::Int().Enable();
    obs::Tracer().Clear();
    obs::Tracer().Enable(tracer);
  }
  ~ObsGuard() {
    obs::Int().Enable(false);
    obs::Int().Clear();
    obs::Tracer().Enable(false);
    obs::Tracer().Clear();
  }
};

TEST(DataplaneAllocations, ObservedHandlePacketAllocatesNothingInSteadyState) {
  ObsGuard guard(/*tracer=*/false);
  ObservedPlatform platform;
  platform.Pass([](uint64_t, bool) {});  // first sight of every chain and tenant
  uint64_t postcards = obs::Int().postcards();
  uint64_t allocs = 0;
  platform.Pass([&allocs](uint64_t packet_allocs, bool) { allocs += packet_allocs; });
  // The pass really was observed: every 16th walk folded a postcard.
  EXPECT_EQ(obs::Int().postcards() - postcards,
            static_cast<uint64_t>(kTenants * kPacketsPerTenant) / kIntSampleN);
  EXPECT_EQ(obs::Int().violations(), 0u);
  EXPECT_EQ(allocs, 0u) << "allocations in one pass of " << kTenants * kPacketsPerTenant
                        << " packets";
}

TEST(DataplaneAllocations, OnlyTracedWalksAllocateWithTheTracerOn) {
  ObsGuard guard(/*tracer=*/true);
  ObservedPlatform platform;
  // Walk ordinals past 1,000, so each walk's target ("vm:1/packet:1025")
  // is as long as in any long run.
  for (int pass = 0; pass < 16; ++pass) {
    platform.Pass([](uint64_t, bool) {});
  }
  obs::Tracer().Clear();
  uint64_t traced = 0;
  uint64_t max_traced_allocs = 0;
  uint64_t untraced_allocs = 0;
  uint64_t delivered = platform.delivered();
  platform.Pass([&](uint64_t allocs, bool sampled) {
    if (sampled) {
      ++traced;
      max_traced_allocs = std::max(max_traced_allocs, allocs);
    } else {
      untraced_allocs += allocs;
    }
  });
  EXPECT_EQ(traced, static_cast<uint64_t>(kTenants * kPacketsPerTenant) / kWalkSampleN);
  EXPECT_GT(platform.delivered(), delivered);
  EXPECT_EQ(untraced_allocs, 0u);
  // The walk's target text: its characters and the shared string holding
  // them. Every event of the walk shares it.
  EXPECT_LE(max_traced_allocs, 3u);
}

}  // namespace
}  // namespace innet
