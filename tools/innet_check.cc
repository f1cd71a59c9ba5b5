// innet_check: command-line front end to the In-Net controller. Feed it a
// Click configuration (and optionally reach requirements) and it reports the
// static-analysis verdict — what an operator's request portal would run.
//
// Usage:
//   innet_check --config FILE [options]
//
// Options:
//   --config FILE          Click configuration to check (required)
//   --requirements FILE    reach statements, one or more
//   --requester KIND       third-party (default) | client | operator
//   --whitelist A[,B,...]  destinations the requester registered
//   --owned P[,Q,...]      source prefixes the requester owns
//   --topology KIND        figure3 (default) | scaling:N
//   --deploy               also run full placement on the topology
//   --verbose              print per-flow findings
//   --trace                print Figure-2-style symbolic traces per egress flow
//                          (the flows the security verdict classified)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/controller/security.h"
#include "src/symexec/click_models.h"
#include "src/symexec/trace_render.h"
#include "src/topology/network.h"

namespace {

using namespace innet;
using namespace innet::controller;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config FILE [--requirements FILE]\n"
               "          [--requester third-party|client|operator]\n"
               "          [--whitelist A[,B,...]] [--owned P[,Q,...]]\n"
               "          [--topology figure3|scaling:N] [--deploy] [--verbose]\n",
               argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    parts.push_back(current);
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string requirements_path;
  RequesterClass requester = RequesterClass::kThirdParty;
  std::vector<Ipv4Address> whitelist;
  std::vector<Ipv4Prefix> owned;
  std::string topology_kind = "figure3";
  bool deploy = false;
  bool verbose = false;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_path = next("--config");
    } else if (arg == "--requirements") {
      requirements_path = next("--requirements");
    } else if (arg == "--requester") {
      std::string kind = next("--requester");
      if (kind == "third-party") {
        requester = RequesterClass::kThirdParty;
      } else if (kind == "client") {
        requester = RequesterClass::kClient;
      } else if (kind == "operator") {
        requester = RequesterClass::kOperator;
      } else {
        std::fprintf(stderr, "unknown requester '%s'\n", kind.c_str());
        return 2;
      }
    } else if (arg == "--whitelist") {
      for (const std::string& part : SplitCommas(next("--whitelist"))) {
        auto addr = Ipv4Address::Parse(part);
        if (!addr) {
          std::fprintf(stderr, "bad whitelist address '%s'\n", part.c_str());
          return 2;
        }
        whitelist.push_back(*addr);
      }
    } else if (arg == "--owned") {
      for (const std::string& part : SplitCommas(next("--owned"))) {
        auto prefix = Ipv4Prefix::Parse(part);
        if (!prefix) {
          std::fprintf(stderr, "bad owned prefix '%s'\n", part.c_str());
          return 2;
        }
        owned.push_back(*prefix);
      }
    } else if (arg == "--topology") {
      topology_kind = next("--topology");
    } else if (arg == "--deploy") {
      deploy = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (config_path.empty()) {
    return Usage(argv[0]);
  }

  std::string config_text;
  if (!ReadFile(config_path, &config_text)) {
    std::fprintf(stderr, "cannot read %s\n", config_path.c_str());
    return 1;
  }
  std::string requirements_text;
  if (!requirements_path.empty() && !ReadFile(requirements_path, &requirements_text)) {
    std::fprintf(stderr, "cannot read %s\n", requirements_path.c_str());
    return 1;
  }

  topology::Network network;
  if (topology_kind == "figure3") {
    network = topology::Network::MakeFigure3();
  } else if (topology_kind.rfind("scaling:", 0) == 0) {
    int n = std::atoi(topology_kind.c_str() + 8);
    if (n < 1) {
      std::fprintf(stderr, "bad scaling size\n");
      return 2;
    }
    network = topology::Network::MakeScalingTopology(n);
  } else {
    std::fprintf(stderr, "unknown topology '%s'\n", topology_kind.c_str());
    return 2;
  }

  // Stand-alone security verdict (uses a representative module address).
  std::string error;
  auto parsed = click::ConfigGraph::Parse(config_text, &error);
  if (!parsed) {
    std::printf("verdict: REJECTED (syntax error: %s)\n", error.c_str());
    return 1;
  }
  SecurityOptions options;
  options.requester = requester;
  options.module_addr = Ipv4Address::MustParse("172.16.3.10");
  options.whitelist = whitelist;
  options.owned_prefixes = owned;
  auto exploration = symexec::ExploreModule(*parsed, &error);
  if (!exploration) {
    std::printf("verdict: REJECTED (cannot model configuration: %s)\n", error.c_str());
    return 1;
  }
  SecurityReport report = ClassifyModuleFlows(*exploration, options);
  std::printf("security verdict (%s): %s\n",
              std::string(RequesterClassName(requester)).c_str(),
              report.Summary().c_str());
  if (verbose) {
    for (const std::string& finding : report.findings) {
      std::printf("  - %s\n", finding.c_str());
    }
  }
  if (trace) {
    // Figure-2-style trace of every egress flow the verdict classified; a
    // flow's first hop is the source it was injected at.
    for (size_t i = 0; i < exploration->delivered.size(); ++i) {
      const symexec::SymbolicPacket& flow = exploration->delivered[i];
      std::printf("\nsymbolic flow %zu (via %s):\n%s", i + 1, flow.HopName(0).c_str(),
                  symexec::RenderTrace(flow).c_str());
    }
  }
  if (report.verdict == Verdict::kRejected) {
    return 1;
  }
  if (!deploy) {
    return 0;
  }

  Controller controller(std::move(network));
  ClientRequest request;
  request.client_id = "cli";
  request.requester = requester;
  request.click_config = config_text;
  request.requirements = requirements_text;
  request.whitelist = whitelist;
  request.owned_prefixes = owned;
  DeployOutcome outcome = controller.Deploy(request);
  if (!outcome.accepted) {
    std::printf("placement: REJECTED (%s)\n", outcome.reason.c_str());
    return 1;
  }
  std::printf("placement: %s at %s%s\n", outcome.platform.c_str(),
              outcome.module_addr.ToString().c_str(),
              outcome.sandboxed ? " (sandboxed)" : "");
  std::printf("verification: %.2f ms model build + %.2f ms checking (%llu engine steps)\n",
              outcome.model_build_ms, outcome.check_ms,
              static_cast<unsigned long long>(outcome.engine_steps));
  return 0;
}
