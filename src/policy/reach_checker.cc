#include "src/policy/reach_checker.h"

#include <algorithm>

namespace innet::policy {

using symexec::Engine;
using symexec::EngineResult;
using symexec::kPortInject;
using symexec::SymbolicPacket;
using symexec::VarAllocator;

ReachCheckResult ReachChecker::Check(const ReachSpec& spec) const {
  ReachCheckResult result;

  std::vector<std::string> sources = resolver_(spec.from.spec);
  if (sources.empty()) {
    result.explanation = "unresolvable source node '" + spec.from.spec + "'";
    return result;
  }
  std::vector<std::vector<std::string>> waypoint_nodes;
  for (const ReachNode& node : spec.waypoints) {
    waypoint_nodes.push_back(resolver_(node.spec));
    if (waypoint_nodes.back().empty()) {
      result.explanation = "unresolvable node '" + node.spec + "'";
      return result;
    }
  }

  for (const std::string& source : sources) {
    int start = graph_->FindNode(source);
    if (start < 0) {
      continue;
    }
    Engine engine(options_);
    SymbolicPacket seed = SymbolicPacket::MakeUnconstrained(engine.vars());
    std::vector<SymbolicPacket> branches = seed.ConstrainToFlowSpec(spec.from.flow,
                                                                    engine.vars());
    for (SymbolicPacket& branch : branches) {
      EngineResult run = engine.Run(*graph_, start, kPortInject, std::move(branch));
      result.engine_steps += run.steps;
      result.paths_explored += run.delivered.size() + run.dropped.size();
      for (const SymbolicPacket& packet : run.delivered) {
        if (PathSatisfies(packet, spec, waypoint_nodes)) {
          result.satisfied = true;
          result.explanation = "satisfied via " + std::to_string(packet.hop_count()) +
                               "-hop path ending at " + packet.delivered_at();
          return result;
        }
      }
    }
  }
  if (result.explanation.empty()) {
    result.explanation = "no conforming flow found";
  }
  return result;
}

bool ReachChecker::PathSatisfies(
    const SymbolicPacket& packet, const ReachSpec& spec,
    const std::vector<std::vector<std::string>>& waypoint_nodes) const {
  return MatchFrom(packet, spec, waypoint_nodes, 0, 0);
}

// Recursively matches waypoint `waypoint` at some hop >= from_hop, trying
// every candidate position (a node can appear several times on a path).
bool ReachChecker::MatchFrom(const SymbolicPacket& packet, const ReachSpec& spec,
                             const std::vector<std::vector<std::string>>& waypoint_nodes,
                             size_t waypoint, int from_hop) const {
  if (waypoint == spec.waypoints.size()) {
    return true;
  }
  const ReachNode& node = spec.waypoints[waypoint];
  const std::vector<std::string>& candidates = waypoint_nodes[waypoint];
  const auto& history = packet.history();
  for (int hop = from_hop; hop < static_cast<int>(history.size()); ++hop) {
    const std::string& hop_node = history[static_cast<size_t>(hop)]->node;
    if (std::find(candidates.begin(), candidates.end(), hop_node) == candidates.end()) {
      continue;
    }
    if (!packet.CanMatchFlowSpec(node.flow, hop)) {
      continue;
    }
    bool invariants_ok = true;
    // The previous waypoint matched somewhere in [prev, hop); the const check
    // anchors on the hop the previous recursion level committed to, which is
    // from_hop - 1 when waypoint > 0 (the hop after the previous match).
    int anchor = waypoint == 0 ? 0 : from_hop - 1;
    for (HeaderField field : node.const_fields) {
      if (!packet.FieldInvariantBetween(field, anchor, hop)) {
        invariants_ok = false;
        break;
      }
    }
    if (!invariants_ok) {
      continue;
    }
    if (MatchFrom(packet, spec, waypoint_nodes, waypoint + 1, hop + 1)) {
      return true;
    }
  }
  return false;
}

}  // namespace innet::policy
