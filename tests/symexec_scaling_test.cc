// Allocation scaling of symbolic execution: one engine step must cost the same
// however long the path behind it is. Copying a packet's whole hop history at
// every step made a path O(n^2) in allocated bytes (and in allocations too,
// wherever node names outgrow the short-string buffer); this guards against
// that coming back. It counts allocations, never wall-clock time, so it is
// deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/symexec/engine.h"
#include "src/topology/network.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

}  // namespace

// The array and nothrow forms of operator new call this one by default, and
// the unaligned forms of operator delete end in the one below (kept out of
// line so GCC does not pair the inlined free() with operator new).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace innet::symexec {
namespace {

struct RunCost {
  uint64_t steps = 0;
  uint64_t allocations = 0;
  uint64_t bytes = 0;
  double PerStep(uint64_t total) const {
    return static_cast<double>(total) / static_cast<double>(steps);
  }
};

// Explores the Figure 10 chain with a flow from the Internet to the client
// subnet, counting the allocations made inside Engine::Run.
RunCost ExploreScalingTopology(int middleboxes) {
  SymGraph graph = topology::Network::MakeScalingTopology(middleboxes).BuildSymGraph();
  EngineOptions options;
  // The controller's budget for long chains (Controller::CheckAllRequirements).
  options.max_hops = static_cast<int>(graph.node_count()) * 2 + 64;
  Engine engine(options);
  SymbolicPacket seed =
      SymbolicPacket::MakeUnconstrained(engine.vars())
          .ConstrainToFlowSpec(FlowSpec::MustParse("udp dst net 10.10.0.0/16"), engine.vars())
          .front();
  int start = graph.FindNode("internet");

  uint64_t allocations_before = g_allocations.load();
  uint64_t bytes_before = g_allocated_bytes.load();
  EngineResult result = engine.Run(graph, start, kPortInject, std::move(seed));
  RunCost cost;
  cost.allocations = g_allocations.load() - allocations_before;
  cost.bytes = g_allocated_bytes.load() - bytes_before;
  cost.steps = result.steps;
  EXPECT_FALSE(result.truncated);
  EXPECT_FALSE(result.delivered.empty());
  return cost;
}

TEST(SymexecScaling, AllocationsPerStepDoNotGrowWithPathLength) {
  ExploreScalingTopology(63);  // warm-up: first-use metric registration allocates
  RunCost small = ExploreScalingTopology(63);
  RunCost large = ExploreScalingTopology(1023);
  ASSERT_GT(small.steps, 0u);
  ASSERT_GT(large.steps, 10 * small.steps);
  EXPECT_LE(large.PerStep(large.allocations), 1.5 * small.PerStep(small.allocations))
      << "63 boxes: " << small.allocations << " allocations over " << small.steps
      << " steps; 1023 boxes: " << large.allocations << " over " << large.steps;
  EXPECT_LE(large.PerStep(large.bytes), 1.5 * small.PerStep(small.bytes))
      << "63 boxes: " << small.bytes << " bytes over " << small.steps
      << " steps; 1023 boxes: " << large.bytes << " over " << large.steps;
}

}  // namespace
}  // namespace innet::symexec
