// Second batch of element classes: paint annotations, traffic switching and
// sampling, TTL/ToS utilities, an ICMP responder, and the explicit proxy the
// paper says residential customers may deploy (§2.1).
#ifndef SRC_CLICK_ELEMENTS_SWITCHING_H_
#define SRC_CLICK_ELEMENTS_SWITCHING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/click/element.h"
#include "src/netcore/flowspec.h"
#include "src/netcore/ip.h"

namespace innet::click {

// Paint(COLOR): tags packets with a box-local color annotation.
class Paint : public Element {
 public:
  std::string_view class_name() const override { return "Paint"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  uint8_t color_ = 0;
};

// PaintSwitch(N): routes packets to the output matching their paint color;
// colors >= N are dropped.
class PaintSwitch : public Element {
 public:
  std::string_view class_name() const override { return "PaintSwitch"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// RoundRobinSwitch(N): spreads packets across N outputs in rotation
// (Click's load-balancing building block).
class RoundRobinSwitch : public Element {
 public:
  std::string_view class_name() const override { return "RoundRobinSwitch"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  int next_ = 0;
};

// HashSwitch(N): spreads packets across N outputs by flow hash, so one
// flow's packets stay on one output.
class HashSwitch : public Element {
 public:
  std::string_view class_name() const override { return "HashSwitch"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
};

// RandomSample(P): forwards a fraction P of traffic to output 0; the rest
// goes to output 1 (or is dropped when unconnected). Deterministic xorshift
// so experiments reproduce.
class RandomSample : public Element {
 public:
  RandomSample() { SetPorts(1, 2); }
  std::string_view class_name() const override { return "RandomSample"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  double probability_ = 0.5;
  uint64_t state_ = 0x853c49e6748fea9bULL;
};

// AddressDemux(ADDR0, ADDR1, ...): exact destination-address demultiplexer
// backed by a hash table — the O(1) alternative to IPClassifier's linear
// pattern scan for multi-tenant consolidation (the Figure 8 knee ablation).
// Unmatched destinations are dropped.
class AddressDemux : public Element {
 public:
  std::string_view class_name() const override { return "AddressDemux"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  // Output i's pattern is "dst host <address i>": the model is an
  // IPClassifier over them, Push a hash lookup.
  std::vector<FlowSpec> patterns_;
  std::unordered_map<uint32_t, int> table_;
};

// SetTTL(N): rewrites the IP TTL.
class SetTTL : public Element {
 public:
  std::string_view class_name() const override { return "SetTTL"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;

 private:
  uint8_t ttl_ = 64;
};

// ICMPPingResponder(): answers echo requests addressed to anything — the
// responder host at the end of the Figure 5 testbed.
class ICMPPingResponder : public Element {
 public:
  std::string_view class_name() const override { return "ICMPPingResponder"; }
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t echo_count() const { return echo_count_; }

 private:
  uint64_t echo_count_ = 0;
};

// ExplicitProxy(SELF addr): a CONNECT-style proxy. The client addresses the
// proxy and names the real target in the request payload
// ("CONNECT a.b.c.d:port"); the proxy fetches as itself. Safe for the
// operator's customers (they may reach any destination), sandboxed for
// third parties (the target is attacker-supplied data) — the §2.1
// "customers can also deploy explicit proxies" case.
class ExplicitProxy : public Element {
 public:
  std::string_view class_name() const override { return "ExplicitProxy"; }
  bool Configure(const std::string& args, std::string* error) override;
  void Push(int port, Packet& packet) override;
  void Apply(ModelContext*, const SymbolicPacket&, int, Transitions*) override;
  uint64_t malformed_count() const { return malformed_; }

 private:
  Ipv4Address self_;
  uint64_t malformed_ = 0;
};

}  // namespace innet::click

#endif  // SRC_CLICK_ELEMENTS_SWITCHING_H_
