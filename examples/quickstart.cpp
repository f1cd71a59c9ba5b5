// Quickstart: deploy the paper's Figure 4 push-notification batcher through
// the In-Net controller, then push a packet through the deployed module's
// real Click graph.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/controller/controller.h"
#include "src/topology/network.h"

using namespace innet;

int main() {
  // 1. The operator brings up a controller over its network snapshot — the
  //    paper's Figure 3 topology: two routers, a NAT&firewall path, an HTTP
  //    optimizer + web cache path, and three processing platforms.
  controller::Controller ctrl(topology::Network::MakeFigure3());

  // The operator registers a policy that must always hold: inbound HTTP must
  // traverse the HTTP optimizer before reaching clients.
  ctrl.AddOperatorPolicy("reach from internet tcp src port 80 -> http_optimizer -> client");

  // 2. A mobile customer (10.10.0.5) submits the Figure 4 request: batch UDP
  //    push notifications arriving on port 1500 and forward them home.
  controller::ClientRequest request;
  request.client_id = "mobile1";
  request.requester = controller::RequesterClass::kClient;
  request.click_config =
      "FromNetfront() ->"
      "IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0)"
      "-> batcher :: TimedUnqueue(120,100)"
      "-> dst :: ToNetfront();";
  request.requirements =
      "reach from internet udp "
      "-> batcher:dst:0 dst 10.10.0.5 "
      "-> client dst port 1500 "
      "const proto && dst port && payload";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};

  // 3. The controller symbolically executes the module and the network:
  //    security rules (anti-spoofing, default-off), the operator policy, and
  //    the client's reachability + invariant requirements, on every platform.
  controller::DeployOutcome outcome = ctrl.Deploy(request);
  if (!outcome.accepted) {
    std::printf("deployment rejected: %s\n", outcome.reason.c_str());
    return 1;
  }
  std::printf("deployed module %s on %s with address %s%s\n", outcome.module_id.c_str(),
              outcome.platform.c_str(), outcome.module_addr.ToString().c_str(),
              outcome.sandboxed ? " (sandboxed)" : "");
  std::printf("verification: %.1f ms model building + %.1f ms checking, %llu engine steps\n",
              outcome.model_build_ms, outcome.check_ms,
              static_cast<unsigned long long>(outcome.engine_steps));

  // 4. Run the deployed configuration for real: a notification arrives at
  //    the module address and is rewritten toward the client, held by the
  //    batcher until its timer fires.
  sim::EventQueue clock;
  std::string error;
  auto graph =
      click::Graph::FromText(ctrl.deployments()[0].config_text, &error, &clock);
  if (graph == nullptr) {
    std::printf("graph build failed: %s\n", error.c_str());
    return 1;
  }
  auto* egress = graph->FindAs<click::ToNetfront>("dst");
  egress->set_handler([&clock](Packet& p) {
    std::printf("t=%.0f s: delivered %s\n", sim::ToSeconds(clock.now()),
                p.Describe().c_str());
  });

  Packet note = Packet::MakeUdp(Ipv4Address::MustParse("5.5.5.5"), outcome.module_addr, 4000,
                                1500, 1024);
  note.SetPayload("you have mail");
  std::printf("t=0 s: notification sent to the module (%s)\n", note.Describe().c_str());
  graph->InjectAtSource(note);
  std::printf("        ... batcher holds it (queue=%llu) ...\n",
              static_cast<unsigned long long>(graph->Find("batcher")->queue_depth()));
  clock.RunUntil(sim::FromSeconds(121));
  std::printf("done: %llu packet(s) delivered to the client\n",
              static_cast<unsigned long long>(egress->packet_count()));
  return 0;
}
