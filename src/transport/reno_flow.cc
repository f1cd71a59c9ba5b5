#include "src/transport/reno_flow.h"

#include <algorithm>
#include <cmath>

namespace innet::transport {

RenoFlow::RenoFlow(sim::EventQueue* clock, PacketChannel* channel, RenoConfig config,
                   sim::TimeNs ack_one_way_delay)
    : clock_(clock),
      channel_(channel),
      config_(config),
      ack_delay_(ack_one_way_delay),
      cwnd_(config.initial_cwnd_segments),
      ssthresh_(config.max_cwnd_segments),
      rto_sec_(config.initial_rto_sec) {}

void RenoFlow::EnqueueSegments(uint64_t segments) {
  available_ += segments;
  TrySend();
}

void RenoFlow::TrySend() {
  while (next_seq_ < available_ &&
         static_cast<double>(inflight_) < std::min(cwnd_, config_.max_cwnd_segments)) {
    // After a go-back-N timeout next_seq_ rewinds below highest_sent_; those
    // sends are retransmissions for Karn's-rule purposes.
    SendSegment(next_seq_, /*retransmission=*/next_seq_ < highest_sent_);
    ++next_seq_;
    if (next_seq_ > highest_sent_) {
      highest_sent_ = next_seq_;
    }
  }
}

void RenoFlow::SendSegment(uint64_t seq, bool retransmission) {
  ++inflight_;
  if (retransmission) {
    ++retransmits_;
    retransmitted_.insert(seq);
  } else {
    sent_time_[seq] = clock_->now();
  }
  if (!rto_armed_) {
    ArmRto();
  }
  channel_->Send(config_.mss_bytes, [this, seq] { OnSegmentDelivered(seq); });
}

void RenoFlow::OnSegmentDelivered(uint64_t seq) {
  // Receiver side: advance the in-order point, remember gaps.
  bool duplicate_data = seq < receiver_cum_ || out_of_order_.count(seq) != 0;
  if (!duplicate_data) {
    if (seq == receiver_cum_) {
      ++receiver_cum_;
      while (out_of_order_.erase(receiver_cum_) != 0) {
        ++receiver_cum_;
      }
      if (in_order_cb_) {
        in_order_cb_(receiver_cum_);
      }
    } else {
      out_of_order_.insert(seq);
    }
  }
  // The ack travels back; it is a duplicate ack when it does not advance the
  // sender's cumulative point.
  uint64_t cum = receiver_cum_;
  clock_->ScheduleAfter(ack_delay_, [this, cum] { OnAck(cum, /*duplicate=*/cum <= cum_acked_); });
}

void RenoFlow::OnAck(uint64_t cum_ack, bool duplicate) {
  if (!duplicate && cum_ack > cum_acked_) {
    uint64_t newly_acked = cum_ack - cum_acked_;
    // RTT sample from the newest acked, non-retransmitted segment (Karn).
    for (uint64_t seq = cum_acked_; seq < cum_ack; ++seq) {
      auto it = sent_time_.find(seq);
      if (it != sent_time_.end()) {
        if (retransmitted_.count(seq) == 0) {
          UpdateRtt(sim::ToSeconds(clock_->now() - it->second));
        }
        sent_time_.erase(it);
      }
      retransmitted_.erase(seq);
    }
    cum_acked_ = cum_ack;
    if (next_seq_ < cum_acked_) {
      // A go-back-N rewind was overtaken by a cumulative ack (the "lost"
      // data had been delivered after all); never resend acked data.
      next_seq_ = cum_acked_;
    }
    inflight_ = inflight_ > newly_acked ? inflight_ - newly_acked : 0;
    // Lost packets never generate acks, so the counter can drift above the
    // truly outstanding span; clamp it (otherwise phantom inflight blocks
    // TrySend forever once the timer is legitimately quenched).
    if (inflight_ > next_seq_ - cum_acked_) {
      inflight_ = next_seq_ - cum_acked_;
    }
    dup_acks_ = 0;

    if (in_recovery_) {
      if (cum_acked_ >= recovery_point_) {
        // Full recovery: deflate back to ssthresh.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ack: the next hole is also lost; retransmit it
        // immediately instead of waiting for a timeout.
        SendSegment(cum_acked_, /*retransmission=*/true);
      }
    }
    if (!in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly_acked);  // slow start
      } else {
        cwnd_ += static_cast<double>(newly_acked) / cwnd_;  // congestion avoidance
      }
      cwnd_ = std::min(cwnd_, config_.max_cwnd_segments);
    }
    if (cum_acked_ >= next_seq_) {
      rto_armed_ = false;  // everything acked; quench the timer
      ++rto_generation_;
    } else {
      ArmRto();  // restart for the next outstanding segment
    }
    TrySend();
    return;
  }

  // Duplicate ack.
  ++dup_acks_;
  if (config_.fast_retransmit && dup_acks_ == 3 && !in_recovery_ && cum_acked_ < next_seq_) {
    ++fast_retransmits_;
    in_recovery_ = true;
    recovery_point_ = highest_sent_;
    ssthresh_ = std::max(static_cast<double>(inflight_) / 2.0, 2.0);
    cwnd_ = ssthresh_ + 3;
    SendSegment(cum_acked_, /*retransmission=*/true);
    return;
  }
  if (in_recovery_ && dup_acks_ > 3) {
    // Window inflation: each further dupack means a segment left the
    // network, so one more may enter — bounded so a long multi-hole recovery
    // cannot re-overload the bottleneck it just overflowed.
    cwnd_ = std::min(cwnd_ + 1.0, ssthresh_ * 2.0);
    if (inflight_ > 0) {
      --inflight_;
    }
    TrySend();
  }
}

void RenoFlow::ArmRto() {
  rto_armed_ = true;
  uint64_t generation = ++rto_generation_;
  clock_->ScheduleAfter(sim::FromSeconds(rto_sec_), [this, generation] { OnRto(generation); });
}

void RenoFlow::OnRto(uint64_t generation) {
  if (generation != rto_generation_ || !rto_armed_) {
    return;  // stale timer
  }
  if (cum_acked_ >= next_seq_) {
    rto_armed_ = false;
    return;  // nothing outstanding
  }
  ++rto_fires_;
  // Go-back-N: collapse the window and resend from the cumulative point.
  ssthresh_ = std::max(static_cast<double>(inflight_) / 2.0, 2.0);
  cwnd_ = 1.0;
  in_recovery_ = false;
  dup_acks_ = 0;
  inflight_ = 0;  // conservatively assume everything in flight was lost
  next_seq_ = cum_acked_;
  rto_sec_ = std::min(rto_sec_ * 2.0, config_.max_rto_sec);
  ArmRto();
  TrySend();
}

void RenoFlow::UpdateRtt(double sample_sec) {
  if (!rtt_seeded_) {
    srtt_sec_ = sample_sec;
    rttvar_sec_ = sample_sec / 2.0;
    rtt_seeded_ = true;
  } else {
    rttvar_sec_ = 0.75 * rttvar_sec_ + 0.25 * std::abs(srtt_sec_ - sample_sec);
    srtt_sec_ = 0.875 * srtt_sec_ + 0.125 * sample_sec;
  }
  rto_sec_ = std::clamp(srtt_sec_ + 4.0 * rttvar_sec_, config_.min_rto_sec,
                        config_.max_rto_sec);
}

TcpTunnelChannel::TcpTunnelChannel(sim::EventQueue* clock, PacketChannel* path,
                                   RenoConfig tunnel_config, sim::TimeNs ack_one_way_delay,
                                   uint64_t buffer_segments)
    : flow_(clock, path, tunnel_config, ack_one_way_delay),
      buffer_segments_(buffer_segments) {
  flow_.SetInOrderCallback([this](uint64_t in_order) {
    while (delivered_prefix_ < in_order && !pending_.empty()) {
      auto cb = std::move(pending_.front());
      pending_.pop_front();
      ++delivered_prefix_;
      cb();
    }
  });
}

void TcpTunnelChannel::Send(uint64_t /*bytes*/, std::function<void()> on_delivered) {
  // Finite socket buffer: pending_ counts segments accepted but not yet
  // delivered in order at the far end. A backed-up tunnel drops at ingress.
  if (pending_.size() >= buffer_segments_) {
    return;  // the inner transport sees this as loss
  }
  // One upper-layer segment rides as one tunnel segment (same MSS).
  pending_.push_back(std::move(on_delivered));
  flow_.EnqueueSegments(1);
}

}  // namespace innet::transport
