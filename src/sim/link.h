// A simulated point-to-point link: serialization at a fixed rate, propagation
// delay, Bernoulli loss, and an optional bounded FIFO (drop-tail).
#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <cstdint>
#include <functional>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace innet::sim {

class Link {
 public:
  struct Config {
    double rate_bps = 1e9;
    TimeNs propagation = kMillisecond;
    double loss_prob = 0.0;
    // Maximum queued bytes awaiting serialization; 0 = unbounded.
    uint64_t queue_limit_bytes = 0;
  };

  Link(EventQueue* queue, Rng* rng, const Config& config)
      : queue_(queue), rng_(rng), config_(config) {}

  // Sends `bytes`; invokes `on_delivered` at the receiver unless the packet is
  // lost or the queue overflows. Returns false when dropped at enqueue time
  // (queue overflow); loss on the wire still returns true.
  bool Send(uint64_t bytes, std::function<void()> on_delivered);

  // Bytes currently queued or in flight on the sender side.
  uint64_t delivered_count() const { return delivered_count_; }
  uint64_t dropped_count() const { return dropped_count_; }

  // One-way latency a `bytes`-sized packet would see on an idle link.
  TimeNs IdleLatency(uint64_t bytes) const {
    return SerializationTime(bytes) + config_.propagation;
  }

 private:
  TimeNs SerializationTime(uint64_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) * 8.0 / config_.rate_bps * 1e9);
  }

  EventQueue* queue_;
  Rng* rng_;
  Config config_;
  TimeNs busy_until_ = 0;
  uint64_t backlog_bytes_ = 0;
  uint64_t delivered_count_ = 0;
  uint64_t dropped_count_ = 0;
};

}  // namespace innet::sim

#endif  // SRC_SIM_LINK_H_
