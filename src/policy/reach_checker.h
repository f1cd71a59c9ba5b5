// Evaluates reach statements against a symbolic graph: the controller's
// verification primitive (§4.3).
#ifndef SRC_POLICY_REACH_CHECKER_H_
#define SRC_POLICY_REACH_CHECKER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/policy/reach_spec.h"
#include "src/symexec/engine.h"

namespace innet::policy {

// Maps a node spec ("internet", "client", "10.0.0.1", "batcher:dst:0") to the
// symbolic-graph node names it may denote. Empty = unresolvable.
using NodeResolver = std::function<std::vector<std::string>(const std::string& spec)>;

struct ReachCheckResult {
  bool satisfied = false;
  std::string explanation;
  // Work metrics, reported by the Figure 10 benchmark.
  uint64_t paths_explored = 0;
  uint64_t engine_steps = 0;
};

class ReachChecker {
 public:
  ReachChecker(const symexec::SymGraph* graph, NodeResolver resolver,
               symexec::EngineOptions options = {})
      : graph_(graph), resolver_(std::move(resolver)), options_(options) {}

  // The requirement is satisfied when at least one symbolic flow traverses
  // every waypoint in order, matching each waypoint's flow spec at that hop
  // and keeping each "const" field unmodified since the previous waypoint.
  ReachCheckResult Check(const ReachSpec& spec) const;

 private:
  bool PathSatisfies(const symexec::SymbolicPacket& packet, const ReachSpec& spec,
                     const std::vector<std::vector<int>>& waypoint_nodes) const;
  bool MatchFrom(const symexec::SymbolicPacket& packet, const ReachSpec& spec,
                 const std::vector<std::vector<int>>& waypoint_nodes, size_t waypoint,
                 int from_hop) const;

  const symexec::SymGraph* graph_;
  NodeResolver resolver_;
  symexec::EngineOptions options_;
};

}  // namespace innet::policy

#endif  // SRC_POLICY_REACH_CHECKER_H_
