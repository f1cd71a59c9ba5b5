// Allocation budget of the control plane: one Controller::Deploy on the
// paper's Figure 3 network with the operator policy through the HTTP
// optimizer and 10 installed tenants (the deploy_churn shape). It counts
// calls to operator new, never wall-clock time, so it is deterministic.
//
// Before the verifier worked on node ids, hop arenas and cached module
// fragments, this deploy made 4,595 allocations: a string copy and a field
// snapshot per engine step, a rebuilt Click model per installed module, and
// a resolver that copied every deployment's element names.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/controller/controller.h"
#include "src/topology/network.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The array forms of operator new call this one by default, and the
// unaligned forms of operator delete end in the one below (both kept out of
// line so GCC does not pair an inlined malloc() or free() with the other). The nothrow
// form, which std::stable_sort uses, is replaced too: a sanitizer runtime
// would otherwise serve it from its own heap and report our free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }

namespace innet::controller {
namespace {

// The achieved count plus a small margin; under a quarter of the 4,595
// the deploy used to make.
constexpr uint64_t kDeployBudget = 900;

ClientRequest LinearRequest(int index) {
  const std::string port = std::to_string(2000 + index);
  ClientRequest request;
  request.client_id = "c" + std::to_string(index);
  request.requester = RequesterClass::kClient;
  request.click_config = "FromNetfront() -> IPFilter(allow udp dst port " + port +
                         ") -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.requirements = "reach from internet udp -> client dst port " + port;
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

TEST(ControllerAllocations, DeployOnFigure3StaysUnderBudget) {
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(
      "reach from internet tcp src port 80 -> http_optimizer -> client"));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(controller.Deploy(LinearRequest(i)).accepted);
  }
  ClientRequest request = LinearRequest(10);

  uint64_t before = g_allocations.load();
  DeployOutcome outcome = controller.Deploy(request);
  uint64_t allocations = g_allocations.load() - before;

  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_GT(outcome.engine_steps, 0u);
  EXPECT_LE(allocations, kDeployBudget)
      << "one deploy over 10 installed tenants made " << allocations << " allocations";
}

}  // namespace
}  // namespace innet::controller
