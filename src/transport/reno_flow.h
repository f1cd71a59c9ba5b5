// A packet-level simulation of a Reno-style reliable transport (slow start,
// congestion avoidance, fast retransmit, Jacobson RTO with Karn's rule).
// Used for both the SCTP association and the TCP tunnel in the Figure 14
// experiment — at this level of abstraction SCTP's SACK loss recovery and
// TCP Reno behave alike; what differs is the *channel* underneath and the
// minimum RTO (RFC 4960 mandates 1 s for SCTP vs 200 ms typical for TCP).
#ifndef SRC_TRANSPORT_RENO_FLOW_H_
#define SRC_TRANSPORT_RENO_FLOW_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/sim/event_queue.h"
#include "src/sim/link.h"
#include "src/sim/rng.h"

namespace innet::transport {

// Where a flow's segments travel. Implementations: a raw lossy path (UDP
// tunnel — losses visible to the flow) or a TCP tunnel (reliable, in-order,
// but stalls under loss).
class PacketChannel {
 public:
  virtual ~PacketChannel() = default;
  // Sends one segment; `on_delivered` fires at the receiver iff it arrives
  // (possibly much later, never for lost packets on a raw channel).
  virtual void Send(uint64_t bytes, std::function<void()> on_delivered) = 0;
};

// Direct path: serialization + propagation + Bernoulli loss.
class RawLossyChannel : public PacketChannel {
 public:
  RawLossyChannel(sim::EventQueue* clock, sim::Rng* rng, const sim::Link::Config& config)
      : link_(clock, rng, config) {}
  void Send(uint64_t bytes, std::function<void()> on_delivered) override {
    link_.Send(bytes, std::move(on_delivered));
  }
  sim::Link& link() { return link_; }

 private:
  sim::Link link_;
};

struct RenoConfig {
  uint64_t mss_bytes = 1400;
  double initial_cwnd_segments = 4;
  double max_cwnd_segments = 512;  // receiver window
  double min_rto_sec = 0.2;        // 1.0 for SCTP (RFC 4960)
  double initial_rto_sec = 1.0;    // 3.0 for SCTP (RFC 4960 §15)
  double max_rto_sec = 60.0;
  bool fast_retransmit = true;
};

class RenoFlow {
 public:
  RenoFlow(sim::EventQueue* clock, PacketChannel* channel, RenoConfig config,
           sim::TimeNs ack_one_way_delay);

  // Makes `segments` more segments available to send (the application
  // write). Call with a large value for a bulk transfer.
  void EnqueueSegments(uint64_t segments);

  // Kicks the sender; also called internally on acks/timeouts.
  void TrySend();

  // Fires every time the *receiver's* in-order delivery point advances to
  // `segment_index` (exclusive prefix count). This is where a tunnel hands
  // inner packets to the upper layer.
  void SetInOrderCallback(std::function<void(uint64_t)> cb) { in_order_cb_ = std::move(cb); }

  // --- Introspection -----------------------------------------------------------
  uint64_t cumulative_acked() const { return cum_acked_; }
  uint64_t receiver_in_order() const { return receiver_cum_; }
  double cwnd_segments() const { return cwnd_; }
  uint64_t retransmit_count() const { return retransmits_; }
  uint64_t rto_count() const { return rto_fires_; }
  uint64_t fast_retransmit_count() const { return fast_retransmits_; }
  // Debug/diagnostic accessors.
  uint64_t inflight() const { return inflight_; }
  uint64_t available() const { return available_; }

  double GoodputBps(sim::TimeNs elapsed) const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(receiver_cum_ * config_.mss_bytes * 8) /
                              sim::ToSeconds(elapsed);
  }

 private:
  void SendSegment(uint64_t seq, bool retransmission);
  void OnSegmentDelivered(uint64_t seq);
  void OnAck(uint64_t cum_ack, bool duplicate);
  void ArmRto();
  void OnRto(uint64_t generation);
  void UpdateRtt(double sample_sec);

  sim::EventQueue* clock_;
  PacketChannel* channel_;
  RenoConfig config_;
  sim::TimeNs ack_delay_;

  // Sender state.
  uint64_t available_ = 0;      // segments the app has written
  uint64_t next_seq_ = 0;       // next segment to send
  uint64_t highest_sent_ = 0;   // one past the highest sequence ever sent
  uint64_t cum_acked_ = 0;    // all segments < cum_acked_ are acked
  double cwnd_;
  double ssthresh_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  uint64_t recovery_point_ = 0;
  std::unordered_map<uint64_t, sim::TimeNs> sent_time_;   // un-acked, for RTT samples
  std::unordered_set<uint64_t> retransmitted_;            // Karn's rule
  uint64_t inflight_ = 0;

  // RTO state.
  double srtt_sec_ = 0;
  double rttvar_sec_ = 0;
  double rto_sec_;
  bool rtt_seeded_ = false;
  uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;

  // Receiver state.
  uint64_t receiver_cum_ = 0;
  std::unordered_set<uint64_t> out_of_order_;

  // Stats.
  uint64_t retransmits_ = 0;
  uint64_t rto_fires_ = 0;
  uint64_t fast_retransmits_ = 0;

  std::function<void(uint64_t)> in_order_cb_;
};

// A TCP tunnel: carries the upper layer's segments over its own RenoFlow.
// Segments accepted into the tunnel are delivered reliably and in order, but
// (a) delivery stalls while the tunnel recovers from path loss (head-of-line
// blocking), and (b) the tunnel's socket buffer is finite: while the tunnel
// is backed up, further inner segments are dropped at ingress. One
// underlying loss therefore triggers BOTH control loops — the classic
// TCP-in-TCP meltdown that makes SCTP-over-TCP 2-5x slower in Figure 14.
class TcpTunnelChannel : public PacketChannel {
 public:
  TcpTunnelChannel(sim::EventQueue* clock, PacketChannel* path, RenoConfig tunnel_config,
                   sim::TimeNs ack_one_way_delay, uint64_t buffer_segments = 64);

  void Send(uint64_t bytes, std::function<void()> on_delivered) override;

  RenoFlow& tunnel_flow() { return flow_; }

 private:
  RenoFlow flow_;
  std::deque<std::function<void()>> pending_;  // per-segment delivery callbacks
  uint64_t delivered_prefix_ = 0;
  uint64_t buffer_segments_;
};

}  // namespace innet::transport

#endif  // SRC_TRANSPORT_RENO_FLOW_H_
