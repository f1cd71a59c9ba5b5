// The built-in element library. Each class defines its runtime Push and its
// symbolic Apply side by side (elements.cc); Apply is pure virtual in the
// base, so a class without a model does not compile.
#ifndef SRC_CLICK_ELEMENTS_H_
#define SRC_CLICK_ELEMENTS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/click/element.h"
#include "src/netcore/flowspec.h"
#include "src/netcore/ip.h"

namespace innet::click {

// --- Sources and sinks --------------------------------------------------------

// Ingress from the platform's virtual NIC. The graph injects packets here.
class FromNetfront : public Element {
 public:
  FromNetfront() { SetPorts(1, 1); }
  std::string_view class_name() const override { return "FromNetfront"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// Egress to the platform's virtual NIC. Counts traffic; the platform attaches
// a handler to hand packets back to the software switch.
class ToNetfront : public Element {
 public:
  using Handler = std::function<void(Packet&)>;
  ToNetfront() { SetPorts(1, 0); }
  std::string_view class_name() const override { return "ToNetfront"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

  void set_handler(Handler handler) { handler_ = std::move(handler); }
  uint64_t packet_count() const { return packet_count_; }
  uint64_t byte_count() const { return byte_count_; }

 private:
  Handler handler_;
  uint64_t packet_count_ = 0;
  uint64_t byte_count_ = 0;
};

class Discard : public Element {
 public:
  Discard() { SetPorts(1, 0); }
  std::string_view class_name() const override { return "Discard"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t packet_count() const { return packet_count_; }

 private:
  uint64_t packet_count_ = 0;
};

// --- Pass-through utilities ---------------------------------------------------

class Counter : public Element {
 public:
  std::string_view class_name() const override { return "Counter"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t packet_count() const { return packet_count_; }
  uint64_t byte_count() const { return byte_count_; }

 private:
  uint64_t packet_count_ = 0;
  uint64_t byte_count_ = 0;
};

// Tee(N): copies each packet to N outputs.
class Tee : public Element {
 public:
  std::string_view class_name() const override { return "Tee"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// --- Classification -----------------------------------------------------------

// IPFilter(allow <flowspec>, deny <flowspec>, ...): first matching rule wins;
// unmatched packets are dropped (Click's default-deny).
class IPFilter : public Element {
 public:
  std::string_view class_name() const override { return "IPFilter"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

  struct Rule {
    bool allow;
    FlowSpec spec;  // wildcard spec encodes "all"
  };

 private:
  std::vector<Rule> rules_;
};

// IPClassifier(pattern, pattern, ..., -): one output per pattern, first match
// wins; "-" matches everything. Unmatched packets are dropped.
class IPClassifier : public Element {
 public:
  std::string_view class_name() const override { return "IPClassifier"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  std::vector<FlowSpec> patterns_;
};

// Classifier: byte-offset classification in real Click; In-Net restricts it
// to the same flow patterns as IPClassifier.
class Classifier : public IPClassifier {
 public:
  std::string_view class_name() const override { return "Classifier"; }
};

// --- Header rewriting -----------------------------------------------------------

// IPRewriter(pattern SADDR SPORT DADDR DPORT X Y): rewrites the fields that
// are not "-". Trailing numbers (output ports in real Click) are accepted and
// ignored beyond validation.
class IPRewriter : public Element {
 public:
  std::string_view class_name() const override { return "IPRewriter"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  std::optional<Ipv4Address> new_src_;
  std::optional<Ipv4Address> new_dst_;
  std::optional<uint16_t> new_sport_;
  std::optional<uint16_t> new_dport_;
};

class SetIPSrc : public Element {
 public:
  std::string_view class_name() const override { return "SetIPSrc"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  Ipv4Address addr_;
};

class SetIPDst : public Element {
 public:
  std::string_view class_name() const override { return "SetIPDst"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  Ipv4Address addr_;
};

class DecIPTTL : public Element {
 public:
  std::string_view class_name() const override { return "DecIPTTL"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

class CheckIPHeader : public Element {
 public:
  std::string_view class_name() const override { return "CheckIPHeader"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// --- Queueing / batching --------------------------------------------------------

// TimedUnqueue(INTERVAL_SEC, BURST): the paper's batcher. Queues packets and
// releases up to BURST every INTERVAL seconds. Degenerates to pass-through
// when the graph has no clock (pure-throughput benchmarks).
class TimedUnqueue : public Element {
 public:
  std::string_view class_name() const override { return "TimedUnqueue"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Initialize(ElementContext* context) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t queue_depth() const override { return queue_.size(); }

 private:
  void Fire();

  double interval_sec_ = 1.0;
  int burst_ = 1;
  std::deque<Packet> queue_;
  bool timer_armed_ = false;
};

// Queue(CAPACITY): FIFO with tail drop; forwards immediately when the
// downstream is connected (push-to-push adapter), so it acts as an overflow
// guard in this engine.
class Queue : public Element {
 public:
  std::string_view class_name() const override { return "Queue"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t queue_depth() const override { return depth_; }

 private:
  size_t capacity_ = 1000;
  size_t depth_ = 0;
};

// --- Stateful / security ---------------------------------------------------------

// ChangeEnforcer(ALLOW a.b.c.d ..., TIMEOUT sec): the paper's sandboxing
// element (§4.4). Port 0 carries inbound traffic (outside -> module): the
// source is recorded as an implicitly-authorized peer and the packet is
// forwarded on output 0. Port 1 carries outbound traffic (module -> outside):
// packets pass (output 1) only when the destination is whitelisted or is an
// authorized peer whose entry has not timed out.
class ChangeEnforcer : public Element {
 public:
  ChangeEnforcer() { SetPorts(2, 2); }
  std::string_view class_name() const override { return "ChangeEnforcer"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

  uint64_t blocked_count() const { return blocked_; }

 private:
  std::unordered_map<uint32_t, uint64_t> peers_;  // addr -> last-seen ns
  symexec::ValueSet whitelist_;
  uint64_t timeout_ns_ = 60ull * 1'000'000'000ull;
  uint64_t blocked_ = 0;
};

// FlowMeter: pass-through; tracks distinct 5-tuples and per-flow packet
// counts, like a NetFlow probe.
class FlowMeter : public Element {
 public:
  std::string_view class_name() const override { return "FlowMeter"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  size_t flow_count() const { return flows_.size(); }

 private:
  std::unordered_map<uint64_t, uint64_t> flows_;
};

// RateLimiter(RATE_BPS [BURST_BYTES]): token bucket; non-conforming packets
// are dropped. Uses the graph clock when present, else packet timestamps.
class RateLimiter : public Element {
 public:
  std::string_view class_name() const override { return "RateLimiter"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  double rate_bps_ = 1e9;
  double burst_bytes_ = 64 * 1024;
  double tokens_ = 64 * 1024;
  uint64_t last_ns_ = 0;
};

// --- Middlebox building blocks ---------------------------------------------------

// ContentMatch(PATTERN): DPI primitive. No match -> output 0; match ->
// output 1 (dropped when unconnected).
class ContentMatch : public Element {
 public:
  ContentMatch() { SetPorts(1, 2); }
  std::string_view class_name() const override { return "ContentMatch"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t match_count() const { return match_count_; }

 private:
  std::string pattern_;
  uint64_t match_count_ = 0;
};

// UDPTunnelEncap(SRC, DST, PORT): wraps the full IP packet in a new
// UDP packet addressed SRC -> DST:PORT; the inner packet rides as payload.
class UDPTunnelEncap : public Element {
 public:
  std::string_view class_name() const override { return "UDPTunnelEncap"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  Ipv4Address src_;
  Ipv4Address dst_;
  uint16_t port_ = 4789;
};

// UDPTunnelDecap(): unwraps a packet produced by UDPTunnelEncap. The inner
// destination is whatever the tunnel payload says — this is why the paper's
// Table 1 marks tunnels as needing a sandbox for third parties.
class UDPTunnelDecap : public Element {
 public:
  std::string_view class_name() const override { return "UDPTunnelDecap"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// LinearIPLookup(prefix out, prefix out, ...): longest-prefix routing onto N
// outputs; unmatched packets are dropped.
class LinearIPLookup : public Element {
 public:
  std::string_view class_name() const override { return "LinearIPLookup"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

  struct Route {
    Ipv4Prefix prefix;
    int out_port;
  };

 private:
  // Longest prefix first, equal lengths in configuration order: Push takes
  // the first route that contains the destination, and Apply subtracts each
  // route from the destinations left, in this one order.
  std::vector<Route> routes_;
};

// NatRewriter(PUBLIC addr): source-NAT. Outbound (port 0): rewrites src to
// the public address, remembers the mapping. Inbound (port 1): restores the
// original destination from the mapping; unknown traffic is dropped.
class NatRewriter : public Element {
 public:
  NatRewriter() { SetPorts(2, 2); }
  std::string_view class_name() const override { return "NatRewriter"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  Ipv4Address public_addr_;
  uint16_t next_port_ = 10000;
  // (proto, inner src ip, inner src port) -> public port, and the reverse.
  std::unordered_map<uint64_t, uint16_t> mappings_;
  std::unordered_map<uint16_t, std::pair<uint32_t, uint16_t>> reverse_;
};

// --- Stock processing modules (§4.1) ----------------------------------------------

// DnsGeoServer(): answers UDP port-53 queries by swapping addresses/ports —
// the response goes back to the requester (implicit authorization).
class DnsGeoServer : public Element {
 public:
  std::string_view class_name() const override { return "DnsGeoServer"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// ReverseProxy(SELF self, ORIGIN origin): serves cached responses back to the
// requester (output 0) and fetches misses from the whitelisted origin as
// itself (output 1).
class ReverseProxy : public Element {
 public:
  ReverseProxy() { SetPorts(1, 2); }
  std::string_view class_name() const override { return "ReverseProxy"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  Ipv4Address self_;
  Ipv4Address origin_;
  uint64_t counter_ = 0;
  double hit_ratio_ = 0.8;
};

// X86Vm(): placeholder for an arbitrary x86 VM. At runtime it forwards
// unchanged; its symbolic model is fully opaque (everything becomes a fresh
// unknown), which forces sandboxing — matching Table 1.
class X86Vm : public Element {
 public:
  std::string_view class_name() const override { return "X86Vm"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// TransparentProxy(): intercepts transit traffic and may rewrite payloads
// while preserving the original addressing — which is exactly why Table 1
// rejects it for non-operator tenants (it relays attacker-addressed traffic).
class TransparentProxy : public Element {
 public:
  std::string_view class_name() const override { return "TransparentProxy"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

}  // namespace innet::click

#endif  // SRC_CLICK_ELEMENTS_H_
