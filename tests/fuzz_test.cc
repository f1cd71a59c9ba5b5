// Seeded mutation fuzzing of what tenants hand the controller: Click
// configurations (parsed, then the security check and the path digest, then
// a deploy on Figure 3 and a kill of what was accepted), flow specs and reach
// statements. A fixed corpus is mutated with a fixed seed, byte by byte and,
// for configs, also element by element, so every run feeds the same few
// thousand inputs; a crash, an uncaught exception or (under
// scripts/check_asan.sh) a sanitizer report fails the test.
//
// Inputs that once crashed are kept as named regression cases at the end.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/click/config_parser.h"
#include "src/click/registry.h"
#include "src/controller/controller.h"
#include "src/controller/security.h"
#include "src/controller/stock_modules.h"
#include "src/netcore/flowspec.h"
#include "src/policy/reach_spec.h"
#include "src/sim/rng.h"
#include "src/symexec/path_digest.h"

namespace innet::controller {
namespace {

constexpr uint64_t kSeed = 18;
constexpr int kInputsPerKind = 2000;
constexpr int kStructuredConfigs = 1000;

// Fragments the mutator splices in: the grammar's punctuation and keywords,
// boundary numbers, and the addresses the corpus uses.
const char* const kTokens[] = {
    "->",       "::",       "[",         "]",          "(",          ")",
    ";",        ",",        " ",         "\n",         "//",         "/*",
    "*/",       "\"",       "$SELF",     "0",          "1",          "-1",
    "65535",    "65536",    "255",       "256",        "4294967296", "99999999999999999999",
    "10.10.0.5", "0.0.0.0/0", "1.2.3.4/33", "-",       "tcp",        "udp",
    "icmp",     "ip",       "src",       "dst",        "host",       "net",
    "port",     "and",      "or",        "not",        "allow",      "deny",
    "all",      "pattern",  "reach from", "const",     "&&",         "internet",
    "client",   "Tee(2)",   "Discard()", "ToNetfront()", "FromNetfront()", "x :: ",
};

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> ConfigCorpus() {
  std::vector<std::string> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(INNET_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".click") {
      corpus.push_back(ReadFile(entry.path()));
    }
  }
  corpus.push_back(StockDnsServer());
  corpus.push_back(StockReverseProxy(Ipv4Address::MustParse("198.51.100.7")));
  corpus.push_back(
      StockTunnel(Ipv4Address::MustParse("203.0.113.9"), Ipv4Prefix::MustParse("10.10.0.0/24")));
  corpus.push_back(StockX86Vm());
  corpus.push_back(
      "FromNetfront() -> c :: IPClassifier(udp dst port 2005, tcp dst port 2005, -);"
      " out :: ToNetfront(); c[0] -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;"
      " c[1] -> IPRewriter(pattern - - 10.10.0.6 - 0 0) -> out; c[2] -> Discard();");
  corpus.push_back(
      "FromNetfront() -> IPFilter(allow udp dst port 2006) -> t :: Tee(2);"
      " out :: ToNetfront(); t[0] -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;"
      " t[1] -> IPRewriter(pattern - - 10.10.0.6 - 0 0) -> out;");
  return corpus;
}

const std::vector<std::string> kFlowSpecCorpus = {
    "",
    "udp",
    "udp dst port 1500",
    "port 80",
    "dst port 1000-2000",
    "src host 10.0.0.1",
    "dst net 192.168.0.0/16",
    "dst 172.16.15.133",
    "tcp and src port 80 and dst net 10.0.0.0/8",
    "udp dst host 10.0.0.1 src port 53",
    "udp dst net 10.10.0.0/16",
    "dst port abc",
    "port 70000",
    "host 300.1.1.1",
    "tcp udp",
    "dst port 10-5",
};

const std::vector<std::string> kReachCorpus = {
    "reach from internet udp -> client dst port 1500 const proto && dst port && payload",
    "reach from internet tcp src port 80 -> http_optimizer -> client",
    "reach from internet udp -> batcher:batcher:0 const payload && dst port -> "
    "client dst port 1500 const payload && proto && dst port",
    "reach from internet udp -> batcher:dst:0 dst 10.10.0.5 -> client dst port 1500",
    "reach from a dst port 9999 -> b dst port 80 -> b -> d",
    "reach from client udp dst host 172.16.3.10 -> 172.16.3.10 -> client const payload && proto",
    "reach from internet -> client const bogusfield",
    "reach from internet const proto -> x",
    "reach from client udp -> nowhere -> client",
    "reach from internet tcp -> web_cache -> http_optimizer -> client const payload",
};

// One to four random edits of `base`, some of them splicing in a piece of
// another corpus entry.
std::string Mutate(const std::string& base, const std::vector<std::string>& corpus,
                   sim::Rng* rng) {
  std::string text = base;
  auto pos = [&]() { return static_cast<size_t>(rng->NextBelow(text.size() + 1)); };
  int edits = 1 + static_cast<int>(rng->NextBelow(4));
  for (int i = 0; i < edits; ++i) {
    switch (rng->NextBelow(6)) {
      case 0:  // overwrite one byte with any byte
        if (!text.empty()) {
          text[rng->NextBelow(text.size())] = static_cast<char>(rng->NextBelow(256));
        }
        break;
      case 1: {  // delete a short range
        size_t at = pos();
        text.erase(at, static_cast<size_t>(rng->NextBelow(12)));
        break;
      }
      case 2: {  // duplicate a short range in place
        size_t at = pos();
        text.insert(at, text.substr(at, static_cast<size_t>(rng->NextBelow(24))));
        break;
      }
      case 3:
        text.insert(pos(), kTokens[rng->NextBelow(std::size(kTokens))]);
        break;
      case 4: {  // splice in a piece of another entry
        const std::string& other = corpus[rng->NextBelow(corpus.size())];
        size_t from = static_cast<size_t>(rng->NextBelow(other.size() + 1));
        text.insert(pos(), other.substr(from, static_cast<size_t>(rng->NextBelow(40))));
        break;
      }
      default:
        text.resize(pos());
        break;
    }
  }
  return text;
}

// The comma-separated arguments of an element declaration.
std::vector<std::string> SplitArguments(const std::string& args) {
  std::vector<std::string> items;
  std::stringstream in(args);
  for (std::string item; std::getline(in, item, ',');) {
    items.push_back(item);
  }
  return items;
}

// One to three element-level edits of `config`: an element's class swapped
// for another registry class, one of its arguments replaced by an argument
// taken from `arguments`, or a connection's port re-wired. Rendered back to
// Click text.
std::string MutateStructure(click::ConfigGraph config, const std::vector<std::string>& classes,
                            const std::vector<std::string>& arguments, sim::Rng* rng) {
  int edits = 1 + static_cast<int>(rng->NextBelow(3));
  for (int i = 0; i < edits; ++i) {
    switch (rng->NextBelow(3)) {
      case 0:
        if (!config.elements.empty()) {
          config.elements[rng->NextBelow(config.elements.size())].class_name =
              classes[rng->NextBelow(classes.size())];
        }
        break;
      case 1:
        if (!config.elements.empty()) {
          std::string& args = config.elements[rng->NextBelow(config.elements.size())].args;
          std::vector<std::string> items = SplitArguments(args);
          const std::string& replacement = arguments[rng->NextBelow(arguments.size())];
          if (items.empty()) {
            items.push_back(replacement);
          } else {
            items[rng->NextBelow(items.size())] = replacement;
          }
          args = items[0];
          for (size_t k = 1; k < items.size(); ++k) {
            args += "," + items[k];
          }
        }
        break;
      default:
        if (!config.connections.empty()) {
          click::Connection& conn = config.connections[rng->NextBelow(config.connections.size())];
          (rng->NextBelow(2) == 0 ? conn.from_port : conn.to_port) =
              static_cast<int>(rng->NextBelow(4));
        }
        break;
    }
  }
  return config.ToString();
}

// The controller side of a tenant deploy: Figure 3 with its operator policy.
// Every accepted module must carry its fragment and is killed again at once.
class DeployHarness {
 public:
  DeployHarness() : controller_(topology::Network::MakeFigure3()) {
    EXPECT_TRUE(controller_.AddOperatorPolicy(
        "reach from internet tcp src port 80 -> http_optimizer -> client"));
  }

  void DeployAndKill(const std::string& text, RequesterClass requester) {
    ClientRequest request;
    request.client_id = "fuzz";
    request.requester = requester;
    request.click_config = text;
    request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
    request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
    DeployOutcome outcome = controller_.Deploy(request);
    if (!outcome.accepted) {
      return;
    }
    ++accepted_;
    const Deployment* deployment = controller_.FindDeployment(outcome.module_id);
    ASSERT_NE(deployment, nullptr);
    EXPECT_NE(deployment->fragment, nullptr);
    EXPECT_TRUE(controller_.Kill(outcome.module_id));
    EXPECT_TRUE(controller_.deployments().empty());
  }

  int accepted() const { return accepted_; }

 private:
  Controller controller_;
  int accepted_ = 0;
};

// What the controller does with a tenant's config before any placement:
// substitute $SELF, parse, then the security check and the path digest.
// Returns whether the config parses.
bool CheckConfig(const std::string& text, RequesterClass requester) {
  Ipv4Address addr = Ipv4Address::MustParse("172.16.3.10");
  std::string error;
  auto config = click::ConfigGraph::Parse(SubstituteSelf(text, addr), &error);
  if (!config) {
    return false;
  }
  SecurityOptions options{requester, addr, {Ipv4Address::MustParse("10.10.0.5")},
                          {Ipv4Prefix::MustParse("10.10.0.0/24")}};
  CheckModuleSecurity(*config, options, &error);
  symexec::ComputePathDigest(*config).Encode();
  return true;
}

constexpr RequesterClass kRequesters[] = {RequesterClass::kThirdParty, RequesterClass::kClient,
                                          RequesterClass::kOperator};

void CheckReach(const std::string& text) {
  std::string error;
  for (const std::string& statement : policy::SplitReachStatements(text)) {
    if (auto spec = policy::ReachSpec::Parse(statement, &error)) {
      spec->ToString();
    }
  }
}

TEST(TenantInputFuzz, ClickConfigs) {
  std::vector<std::string> corpus = ConfigCorpus();
  ASSERT_GE(corpus.size(), 7u);
  sim::Rng rng(kSeed);
  DeployHarness harness;
  int parsed = 0;
  for (int i = 0; i < kInputsPerKind; ++i) {
    std::string input = Mutate(corpus[rng.NextBelow(corpus.size())], corpus, &rng);
    SCOPED_TRACE(input);
    if (CheckConfig(input, kRequesters[i % 3])) {
      ++parsed;
      harness.DeployAndKill(input, kRequesters[i % 3]);
    }
  }
  std::printf("byte-level configs: %d of %d parse, %d deployed\n", parsed, kInputsPerKind,
              harness.accepted());
}

TEST(TenantInputFuzz, StructuredClickConfigs) {
  std::vector<click::ConfigGraph> corpus;
  std::vector<std::string> arguments = {"", "0", "-1", "65536", "4294967296", "-", "$SELF",
                                        "10.10.0.5", "0.0.0.0/0", "udp dst port 53"};
  for (const std::string& text : ConfigCorpus()) {
    std::string error;
    auto config = click::ConfigGraph::Parse(text, &error);
    ASSERT_TRUE(config.has_value()) << error << "\n" << text;
    for (const click::ElementDecl& decl : config->elements) {
      std::vector<std::string> items = SplitArguments(decl.args);
      arguments.insert(arguments.end(), items.begin(), items.end());
    }
    corpus.push_back(std::move(*config));
  }
  std::vector<std::string> classes = click::Registry::Global().KnownClasses();
  sim::Rng rng(kSeed + 3);
  DeployHarness harness;
  int parsed = 0;
  for (int i = 0; i < kStructuredConfigs; ++i) {
    std::string input =
        MutateStructure(corpus[rng.NextBelow(corpus.size())], classes, arguments, &rng);
    SCOPED_TRACE(input);
    if (CheckConfig(input, kRequesters[i % 3])) {
      ++parsed;
      harness.DeployAndKill(input, kRequesters[i % 3]);
    }
  }
  std::printf("structured configs: %d of %d parse, %d deployed\n", parsed, kStructuredConfigs,
              harness.accepted());
  EXPECT_GE(2 * parsed, kStructuredConfigs);
}

TEST(TenantInputFuzz, FlowSpecs) {
  sim::Rng rng(kSeed + 1);
  for (int i = 0; i < kInputsPerKind; ++i) {
    std::string input =
        Mutate(kFlowSpecCorpus[rng.NextBelow(kFlowSpecCorpus.size())], kFlowSpecCorpus, &rng);
    SCOPED_TRACE(input);
    if (auto spec = FlowSpec::Parse(input)) {
      spec->ToString();
    }
  }
}

TEST(TenantInputFuzz, ReachStatements) {
  sim::Rng rng(kSeed + 2);
  for (int i = 0; i < kInputsPerKind; ++i) {
    std::string input =
        Mutate(kReachCorpus[rng.NextBelow(kReachCorpus.size())], kReachCorpus, &rng);
    SCOPED_TRACE(input);
    CheckReach(input);
  }
}

// Found by this fuzzer (seed 1): a port number that does not fit an int made
// the config parser throw std::out_of_range out of ConfigGraph::Parse, which
// would have taken the controller down on a tenant's request.
TEST(TenantInputRegression, PortNumberOverflowingInt) {
  const char* inputs[] = {
      "FromNetfront() -> c :: IPClassifier(udp dst port 2005, tcp dst port 2005, -);"
      " out :: ToNetfront(); c[0] -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;"
      " c[1] -> IPRewriter(pattern - - 10.10.0.6 - 0 0) -> out; c[24294967296] -> Discard();",
      "FromNetfront() -> [99999999999999999999]ToNetfront();",
  };
  for (const char* input : inputs) {
    std::string error;
    EXPECT_FALSE(click::ConfigGraph::Parse(input, &error).has_value()) << input;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
}

// Found while fixing the case above: a port within int range but beyond the
// element's ports made the model allocate an edge slot for every port below
// it, so a few bytes of config could ask for gigabytes. The model now checks
// connections against the element's port counts, as the runtime graph does.
TEST(TenantInputRegression, PortBeyondElementPorts) {
  for (const char* input : {"FromNetfront() -> t :: Tee(2); t[100000] -> ToNetfront();",
                            "FromNetfront() -> [70000]ToNetfront();"}) {
    std::string error;
    auto config = click::ConfigGraph::Parse(input, &error);
    ASSERT_TRUE(config.has_value()) << error;
    EXPECT_FALSE(symexec::ExploreModule(*config, &error).has_value()) << input;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    SecurityReport report = CheckModuleSecurity(*config, {}, &error);
    EXPECT_EQ(report.verdict, Verdict::kRejected);
  }
}

}  // namespace
}  // namespace innet::controller
