#include "src/click/element.h"

#include <string_view>

#include "src/click/profiler.h"

namespace innet::click {
namespace {

// Simulated per-class processing costs: a fixed base per packet plus a
// per-byte term (scaled by 1024). Calibrated loosely to the relative costs
// reported for Click elements — classification and table lookups cost more
// than header edits, payload scans pay per byte, an opaque x86 VM pays a
// domain-crossing premium. The absolute values matter less than being a
// deterministic, documented function of (class, length): they feed proc_ns
// accounting, folded-stack weights, and sampled-walk slice durations.
struct ClassCost {
  std::string_view class_name;
  uint64_t base_ns;
  uint64_t per_byte_x1024;
};

constexpr ClassCost kClassCosts[] = {
    {"IPFilter", 120, 256},      {"IPClassifier", 120, 256}, {"Classifier", 120, 256},
    {"LinearIPLookup", 140, 256}, {"ContentMatch", 80, 1024}, {"ChangeEnforcer", 150, 256},
    {"IPRewriter", 90, 256},     {"NatRewriter", 110, 256},  {"UDPTunnelEncap", 70, 512},
    {"UDPTunnelDecap", 70, 512}, {"ReverseProxy", 160, 512}, {"TransparentProxy", 160, 512},
    {"DnsGeoServer", 130, 512},  {"X86Vm", 400, 512},        {"FlowMeter", 60, 256},
    {"RateLimiter", 60, 256},
};

constexpr uint64_t kDefaultBaseNs = 50;
constexpr uint64_t kDefaultPerByteX1024 = 256;  // 0.25 ns per byte

}  // namespace

bool Element::Configure(const std::string& args, std::string* error) {
  if (!args.empty()) {
    *error = std::string(class_name()) + " takes no configuration, got '" + args + "'";
    return false;
  }
  return true;
}

void Element::ConnectOutput(int out_port, Element* target, int target_port) {
  if (out_port >= 0 && static_cast<size_t>(out_port) < outputs_.size()) {
    outputs_[static_cast<size_t>(out_port)] = PortTarget{target, target_port};
  }
}

void Element::SetPorts(int inputs, int outputs) {
  n_inputs_ = inputs;
  n_outputs_ = outputs;
  outputs_.assign(static_cast<size_t>(outputs < 0 ? 0 : outputs), PortTarget{});
  port_packets_.assign(outputs_.size(), 0);
}

void Element::TraceForward(int out_port, const Packet& packet) const {
  context_->trace(*this, out_port, packet);
}

void Element::ForwardProfiled(const PortTarget& target, Packet& packet) {
  GraphProfiler* profiler = context_->profiler;
  profiler->EnterElement(*target.element, packet, target.port);
  target.element->Push(target.port, packet);
  profiler->ExitElement();
}

void Element::InitCostModel() const {
  cost_base_ns_ = kDefaultBaseNs;
  cost_per_byte_x1024_ = kDefaultPerByteX1024;
  for (const ClassCost& cost : kClassCosts) {
    if (cost.class_name == class_name()) {
      cost_base_ns_ = cost.base_ns;
      cost_per_byte_x1024_ = cost.per_byte_x1024;
      break;
    }
  }
  cost_ready_ = true;
}

}  // namespace innet::click
