// The runtime packet representation used by the Click engine and the platform
// simulator.
//
// A Packet owns an inline wire buffer (Ethernet + IPv4 + L4 + payload, network
// byte order) plus a set of *annotations* — parsed header fields in host byte
// order that elements read and write on the fast path, exactly like Click's
// packet annotations. Mutators keep the wire bytes and the annotations in
// sync, so checksum-verifying elements and byte-level DPI both see consistent
// data.
#ifndef SRC_NETCORE_PACKET_H_
#define SRC_NETCORE_PACKET_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/netcore/headers.h"
#include "src/netcore/ip.h"

namespace innet {

// Maximum Ethernet frame we carry (no jumbo frames, as in the paper's NICs).
inline constexpr size_t kMaxFrameLen = 1514;
inline constexpr size_t kEthHeaderLen = sizeof(EthernetHeader);
inline constexpr size_t kIpHeaderLen = sizeof(Ipv4Header);

// One in-band telemetry (INT) hop record: appended by the profiler as a
// sampled packet enters each element, completed with the egress port by the
// forwarding element. A fixed-size POD: the element is its dense id in the
// stamping graph (Graph::Build), and names are resolved through that graph's
// element name table only when a postcard is folded or rendered — the table
// outlives the graph, so postcards stay valid after teardown.
struct IntHop {
  uint32_t element = 0;
  uint16_t ingress_port = 0;
  uint16_t egress_port = 0;
  uint32_t queue_depth = 0;  // occupancy of queue-like elements at traversal
  bool endpoint = false;     // source/sink adapter, outside the tenant chain
  uint64_t hop_ns = 0;       // simulated processing cost of this hop
};

// Bound on the in-band stack, like INT's hop-count budget on real switches:
// beyond this, hops are counted but not recorded, and the postcard is marked
// truncated (attestation skips it rather than flagging a false violation).
inline constexpr size_t kMaxIntHops = 24;

class Packet {
 public:
  Packet() = default;

  // Copying moves only the occupied bytes, like a NIC DMA of the actual
  // frame — so per-packet costs scale with packet size, as on real hardware.
  Packet(const Packet& other) { CopyFrom(other); }
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }
  Packet(Packet&& other) noexcept { CopyFrom(other); }
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }

  // --- Builders -------------------------------------------------------------
  // All builders produce a full Ethernet+IPv4 frame with valid checksums.
  static Packet MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                        size_t payload_len = 0);
  static Packet MakeTcp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                        uint8_t tcp_flags, size_t payload_len = 0);
  static Packet MakeIcmpEcho(Ipv4Address src, Ipv4Address dst, uint16_t id, uint16_t seq,
                             bool is_reply = false);

  // Reconstructs a packet from raw frame bytes (Ethernet + IPv4 + L4).
  // Returns a packet with length() == 0 when the bytes do not parse.
  static Packet FromWire(const uint8_t* data, size_t len);

  // --- Annotation accessors (host byte order) --------------------------------
  Ipv4Address ip_src() const { return ip_src_; }
  Ipv4Address ip_dst() const { return ip_dst_; }
  uint8_t protocol() const { return protocol_; }
  uint8_t ttl() const { return ttl_; }
  uint16_t src_port() const { return src_port_; }
  uint16_t dst_port() const { return dst_port_; }
  uint8_t tcp_flags() const { return tcp_flags_; }
  size_t length() const { return length_; }
  size_t payload_length() const { return length_ - payload_offset_; }

  // --- Mutators: update annotations AND wire bytes ---------------------------
  void set_ip_src(Ipv4Address addr);
  void set_ip_dst(Ipv4Address addr);
  void set_src_port(uint16_t port);
  void set_dst_port(uint16_t port);
  void set_ttl(uint8_t ttl);
  // Decrements TTL; returns false if the TTL was already 0 or 1 (packet should
  // be dropped, as a router would).
  bool DecrementTtl();

  // Recomputes the IPv4 header checksum and the L4 checksum.
  void RefreshChecksums();
  // Verifies the IPv4 header checksum against the wire bytes.
  bool VerifyIpChecksum() const;

  // --- Raw access -------------------------------------------------------------
  const uint8_t* data() const { return buf_.data(); }
  uint8_t* mutable_data() { return buf_.data(); }
  const uint8_t* payload() const { return buf_.data() + payload_offset_; }
  uint8_t* mutable_payload() { return buf_.data() + payload_offset_; }
  size_t payload_offset() const { return payload_offset_; }

  // Writes `text` into the payload (truncating to the payload capacity) and
  // refreshes checksums. Useful for DPI tests.
  void SetPayload(std::string_view text);
  std::string_view PayloadView() const {
    return {reinterpret_cast<const char*>(payload()), payload_length()};
  }

  // Re-parses annotations from the wire bytes (after external byte edits).
  // Returns false if the frame is not a well-formed IPv4 packet.
  bool ReparseFromWire();

  // --- Soft metadata (not on the wire) ----------------------------------------
  // Firewall tag from the paper's Figure 2 model; set by stateful firewalls on
  // authorized traffic.
  bool firewall_tag() const { return firewall_tag_; }
  void set_firewall_tag(bool tag) { firewall_tag_ = tag; }

  // Ingress timestamp in simulated nanoseconds, stamped by sources/switches.
  uint64_t timestamp_ns() const { return timestamp_ns_; }
  void set_timestamp_ns(uint64_t ns) { timestamp_ns_ = ns; }

  // Click's paint annotation (Paint / PaintSwitch); box-local metadata.
  uint8_t paint() const { return paint_; }
  void set_paint(uint8_t paint) { paint_ = paint; }

  // --- In-band telemetry (soft metadata, survives queueing and copies) -------
  // A sampled packet carries its own hop stack from ingress to egress/drop;
  // the profiler activates it, elements append to it, and the IntCollector
  // (src/obs/int_telemetry.h) folds the completed postcard. Packet-carried
  // state is the point of INT: unlike the profiler's walk-scoped chain, it
  // survives a TimedUnqueue parking the packet across sim-clock events.
  bool int_active() const { return (int_flags_ & kIntActive) != 0; }
  void ActivateInt(uint64_t now_ns) {
    int_flags_ = kIntActive;
    int_ingress_ns_ = now_ns;
    int_truncated_ = 0;
    int_hops_.clear();
  }
  void DeactivateInt() {
    int_flags_ = 0;
    int_hops_.clear();
    int_truncated_ = 0;
  }
  // Parked: held by a timed element; the walk that injected it must not emit
  // a drop postcard when the walk unwinds without reaching a sink.
  bool int_parked() const { return (int_flags_ & kIntParked) != 0; }
  void set_int_parked(bool parked) {
    if (parked) {
      int_flags_ |= kIntParked;
    } else {
      int_flags_ &= static_cast<uint8_t>(~kIntParked);
    }
  }
  // Done: a postcard was already folded (egress); suppresses the drop path.
  bool int_done() const { return (int_flags_ & kIntDone) != 0; }
  void MarkIntDone() { int_flags_ |= kIntDone; }

  uint64_t int_ingress_ns() const { return int_ingress_ns_; }
  uint32_t int_truncated() const { return int_truncated_; }
  const std::vector<IntHop>& int_hops() const { return int_hops_; }
  void AppendIntHop(const IntHop& hop) {
    if (int_hops_.size() >= kMaxIntHops) {
      ++int_truncated_;
      return;
    }
    int_hops_.push_back(hop);
  }
  // Stamped by the forwarding element just before handing the packet on, so
  // the record for the hop being left carries the chosen output port.
  void SetLastIntEgressPort(uint16_t port) {
    if (!int_hops_.empty()) {
      int_hops_.back().egress_port = port;
    }
  }

  // A hashable 5-tuple key for flow tables.
  uint64_t FlowKey() const;
  std::string Describe() const;

 private:
  void BuildCommon(Ipv4Address src, Ipv4Address dst, uint8_t proto, size_t l4_len);

  void CopyFrom(const Packet& other) {
    std::memcpy(buf_.data(), other.buf_.data(), other.length_);
    length_ = other.length_;
    l4_offset_ = other.l4_offset_;
    payload_offset_ = other.payload_offset_;
    ip_src_ = other.ip_src_;
    ip_dst_ = other.ip_dst_;
    protocol_ = other.protocol_;
    ttl_ = other.ttl_;
    src_port_ = other.src_port_;
    dst_port_ = other.dst_port_;
    tcp_flags_ = other.tcp_flags_;
    firewall_tag_ = other.firewall_tag_;
    paint_ = other.paint_;
    timestamp_ns_ = other.timestamp_ns_;
    int_flags_ = other.int_flags_;
    int_ingress_ns_ = other.int_ingress_ns_;
    int_truncated_ = other.int_truncated_;
    int_hops_ = other.int_hops_;
  }

  alignas(8) std::array<uint8_t, kMaxFrameLen> buf_ = {};
  size_t length_ = 0;
  size_t l4_offset_ = 0;
  size_t payload_offset_ = 0;

  Ipv4Address ip_src_;
  Ipv4Address ip_dst_;
  uint8_t protocol_ = 0;
  uint8_t ttl_ = 64;
  uint16_t src_port_ = 0;
  uint16_t dst_port_ = 0;
  uint8_t tcp_flags_ = 0;
  bool firewall_tag_ = false;
  uint8_t paint_ = 0;
  uint64_t timestamp_ns_ = 0;

  static constexpr uint8_t kIntActive = 1;
  static constexpr uint8_t kIntParked = 2;
  static constexpr uint8_t kIntDone = 4;
  uint8_t int_flags_ = 0;
  uint64_t int_ingress_ns_ = 0;
  uint32_t int_truncated_ = 0;
  std::vector<IntHop> int_hops_;
};

}  // namespace innet

#endif  // SRC_NETCORE_PACKET_H_
