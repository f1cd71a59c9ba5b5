// Reproduces Figure 7: suspend/resume latency for one ClickOS VM as the
// number of existing VMs grows 0 -> 200 (paper: suspend 30 -> ~90 ms,
// resume 40 -> ~100 ms). Suspend/resume is what lets stateful per-client
// processing scale past the concurrent-VM limit without breaking flows (§5).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/platform/vm.h"

namespace {

using namespace innet;
using platform::Vm;
using platform::VmKind;
using platform::VmManager;

constexpr const char* kConfig = "FromNetfront() -> IPFilter(allow all) -> ToNetfront();";

}  // namespace

int main() {
  bench::PrintHeader("Figure 7: suspend/resume one VM vs number of existing VMs");
  std::printf("%-12s %-16s %-16s\n", "# of VMs", "suspend (ms)", "resume (ms)");
  bench::PrintRule();

  std::string error;
  auto config = platform::ParseGuestConfig(kConfig, &error);
  if (config == nullptr) {
    std::fprintf(stderr, "bad config: %s\n", error.c_str());
    return 1;
  }
  for (int existing : {0, 25, 50, 75, 100, 125, 150, 175, 200}) {
    sim::EventQueue clock;
    VmManager vms(&clock, 8ull << 30);
    Vm* victim = nullptr;
    for (int i = 0; i <= existing; ++i) {
      Vm* vm = vms.Create(VmKind::kClickOs, config, nullptr, &error);
      if (vm == nullptr) {
        std::fprintf(stderr, "create failed: %s\n", error.c_str());
        return 1;
      }
      if (i == 0) {
        victim = vm;
      }
    }
    clock.RunUntil(sim::FromSeconds(10));  // let every guest finish booting

    sim::TimeNs start = clock.now();
    sim::TimeNs suspended_at = 0;
    vms.Suspend(victim->id(), [&] { suspended_at = clock.now(); });
    clock.RunUntil(start + sim::FromSeconds(5));
    double suspend_ms = sim::ToMillis(suspended_at - start);

    start = clock.now();
    sim::TimeNs resumed_at = 0;
    vms.Resume(victim->id(), [&] { resumed_at = clock.now(); });
    clock.RunUntil(start + sim::FromSeconds(5));
    double resume_ms = sim::ToMillis(resumed_at - start);

    std::printf("%-12d %-16.1f %-16.1f\n", existing, suspend_ms, resume_ms);
  }
  std::printf("\n(paper: ~30 -> ~90 ms suspend and ~40 -> ~100 ms resume across 0 -> 200 VMs;\n"
              " the whole cycle stays near 100 ms, fast enough to park idle stateful tenants)\n");
  return 0;
}
