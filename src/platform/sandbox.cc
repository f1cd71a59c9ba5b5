#include "src/platform/sandbox.h"

namespace innet::platform {

namespace {

// Captures whether the enforcer forwarded a packet.
class FlagSink : public click::Element {
 public:
  explicit FlagSink(bool* flag) : flag_(flag) {}
  std::string_view class_name() const override { return "FlagSink"; }
  void Push(int /*port*/, Packet& /*packet*/) override { *flag_ = true; }
  void Apply(click::ModelContext* /*ctx*/, const click::SymbolicPacket& packet, int /*in_port*/,
             click::Transitions* out) override {
    out->push_back({symexec::kPortDeliver, packet});
  }

 private:
  bool* flag_;
};

std::string EnforcerArgs(const std::vector<Ipv4Address>& whitelist, double timeout_sec) {
  std::string args;
  if (!whitelist.empty()) {
    args += "ALLOW";
    for (Ipv4Address addr : whitelist) {
      args += " " + addr.ToString();
    }
    args += ", ";
  }
  args += "TIMEOUT " + std::to_string(timeout_sec);
  return args;
}

}  // namespace

std::optional<click::ConfigGraph> WrapWithEnforcer(const click::ConfigGraph& config,
                                                   const std::vector<Ipv4Address>& whitelist,
                                                   double timeout_sec, std::string* error) {
  std::vector<std::string> sources;
  std::vector<std::string> sinks;
  for (const click::ElementDecl& decl : config.elements) {
    if (click::IsSourceClass(decl.class_name)) {
      sources.push_back(decl.name);
    } else if (click::IsSinkClass(decl.class_name)) {
      sinks.push_back(decl.name);
    }
  }
  if (sources.empty() || sinks.empty()) {
    *error = "cannot sandbox a module without FromNetfront/ToNetfront";
    return std::nullopt;
  }
  auto contains = [](const std::vector<std::string>& v, const std::string& s) {
    for (const std::string& x : v) {
      if (x == s) {
        return true;
      }
    }
    return false;
  };

  click::ConfigGraph wrapped;
  wrapped.elements = config.elements;
  wrapped.elements.push_back(
      {"__sandbox__", "ChangeEnforcer", EnforcerArgs(whitelist, timeout_sec)});

  for (const click::Connection& conn : config.connections) {
    bool from_source = contains(sources, conn.from);
    bool to_sink = contains(sinks, conn.to);
    if (from_source) {
      // Ingress traffic passes the enforcer's inbound side (port 0).
      wrapped.connections.push_back({conn.from, conn.from_port, "__sandbox__", 0});
      wrapped.connections.push_back({"__sandbox__", 0, conn.to, conn.to_port});
    } else if (to_sink) {
      // Egress traffic passes the outbound side (port 1).
      wrapped.connections.push_back({conn.from, conn.from_port, "__sandbox__", 1});
      wrapped.connections.push_back({"__sandbox__", 1, conn.to, conn.to_port});
    } else {
      wrapped.connections.push_back(conn);
    }
  }
  return wrapped;
}

SeparateVmSandbox::SeparateVmSandbox(const std::vector<Ipv4Address>& whitelist,
                                     double timeout_sec) {
  enforcer_ = std::make_unique<click::ChangeEnforcer>();
  std::string error;
  if (!enforcer_->Configure(EnforcerArgs(whitelist, timeout_sec), &error)) {
    // Whitelist entries come from parsed addresses, so this cannot fire; keep
    // the enforcer default-configured if it somehow does.
  }
  // Both outputs lead to the admitted flag; a dropped packet never sets it.
  sinks_[0] = std::make_unique<FlagSink>(&admitted_);
  sinks_[1] = std::make_unique<FlagSink>(&admitted_);
  enforcer_->ConnectOutput(0, sinks_[0].get(), 0);
  enforcer_->ConnectOutput(1, sinks_[1].get(), 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

SeparateVmSandbox::~SeparateVmSandbox() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

bool SeparateVmSandbox::Filter(int direction, Packet& packet) {
  bool admitted = false;
  FilterBatch(direction, &packet, 1, &admitted);
  return admitted;
}

size_t SeparateVmSandbox::FilterBatch(int direction, Packet* packets, size_t count,
                                      bool* admitted) {
  if (count == 0) {
    return 0;
  }
  std::unique_lock<std::mutex> lock(mu_);
  pending_packet_ = packets;
  pending_count_ = count;
  pending_admitted_ = admitted;
  pending_direction_ = direction;
  request_ready_ = true;
  response_ready_ = false;
  cv_.notify_all();
  cv_.wait(lock, [this] { return response_ready_; });
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    total += admitted[i] ? 1 : 0;
  }
  return total;
}

void SeparateVmSandbox::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return request_ready_ || shutdown_; });
    if (shutdown_) {
      return;
    }
    request_ready_ = false;
    for (size_t i = 0; i < pending_count_; ++i) {
      admitted_ = false;
      enforcer_->Push(pending_direction_, pending_packet_[i]);
      pending_admitted_[i] = admitted_;
      ++processed_;
    }
    response_ready_ = true;
    cv_.notify_all();
  }
}

}  // namespace innet::platform
