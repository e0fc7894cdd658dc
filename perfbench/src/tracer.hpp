// The traced run's per-layer hand-off split.
//
// The library already stamps the events of a token hand-off into its
// flight recorder (client.release, strand.token_forward, wire.frame_send,
// wire.frame_recv, client.grant); the benchmark stamps its own lock()
// returns into one SpanRing per client. A sampler thread periodically
// copies the flight rings, joins the two streams per resource, and files
// each completed hand-off's stage durations into fixed histograms:
//
//   release -> token_forward -> [frame_send -> frame_recv] -> grant -> return
//
// Each flight ring keeps only the last kFlightRingCapacity records of its
// thread, so a sample is joined only over the interval every full ring
// still covers; older events may have been overwritten.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Recent lock() returns of one client. Written by that client only; read
/// concurrently by the sampler, so every field is an atomic (a slot read
/// while being overwritten yields a mismatched sample, never a race).
class SpanRing {
 public:
  static constexpr std::uint64_t kCapacity = 4096;

  SpanRing() : slots_(new Slot[kCapacity]) {}

  void push(std::uint64_t t_ns, std::int32_t resource, std::int32_t node) {
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[i % kCapacity];
    slot.t_ns.store(t_ns, std::memory_order_relaxed);
    slot.resource.store(resource, std::memory_order_relaxed);
    slot.node.store(node, std::memory_order_relaxed);
    head_.store(i + 1, std::memory_order_release);
  }

  /// Calls f(t, resource, node) for retained returns with t in [from, to].
  template <class F>
  void for_each_in(std::uint64_t from, std::uint64_t to, F&& f) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t kept = head < kCapacity ? head : kCapacity;
    for (std::uint64_t i = head - kept; i < head; ++i) {
      const Slot& slot = slots_[i % kCapacity];
      const std::uint64_t t = slot.t_ns.load(std::memory_order_relaxed);
      if (t >= from && t <= to) {
        f(t, slot.resource.load(std::memory_order_relaxed),
          slot.node.load(std::memory_order_relaxed));
      }
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::int32_t> resource{0};
    std::atomic<std::int32_t> node{0};
  };
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Hand-off stages, in causal order.
enum Stage {
  kReleaseToForward,  // holder's unlock to the token message leaving its strand
  kForwardToGrant,    // token in flight (any substrate) to the waiter's grant
  kReleaseToSend,     // TCP: unlock to the frame queued on the wire
  kSendToRecv,        // TCP: frame queued to frame decoded at the peer
  kRecvToGrant,       // TCP: frame decoded to the waiter's grant
  kGrantToReturn,     // grant stamp to the waiter's lock() return
  kStageCount,
};

class Tracer {
 public:
  /// `wire`: join the frame_send/frame_recv stages (TCP substrate).
  /// `resources`: resource ids are dense in [0, resources).
  Tracer(std::vector<const SpanRing*> rings, bool wire, int resources);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts / stops the sampler thread; stop() joins it.
  void start();
  void stop();

  const Histogram& stage(Stage s) const { return stages_[s]; }
  /// Sum of the medians of the stages that make up one hand-off on this
  /// substrate, in ns.
  double stage_median_sum() const;

 private:
  struct Event {
    std::uint64_t t;
    std::int32_t resource;
    std::int32_t node;
    std::int64_t arg;
    int kind;
  };
  struct Pending {
    int step = 0;
    std::int32_t from = 0;
    std::int32_t to = 0;
    std::uint64_t t_release = 0, t_forward = 0, t_send = 0, t_recv = 0,
                  t_grant = 0;
  };

  /// Clients of one (resource, node) parked in lock(), per the flight
  /// client.request / grant / timeout events seen in the window.
  struct Waiting {
    int count = 0;
    std::uint64_t since = 0;
  };
  /// Node ids above this are ignored by the join.
  static constexpr int kMaxNodes = 16;

  void loop();
  void sample();
  Waiting& waiting(std::int32_t r, std::int32_t v) {
    return waiting_[static_cast<std::size_t>(r) * kMaxNodes +
                    static_cast<std::size_t>(v)];
  }

  std::vector<const SpanRing*> rings_;
  bool wire_;
  std::vector<Histogram> stages_;
  /// Reused join buffer (capacity reserved once) and per-resource state.
  std::vector<Event> events_;
  std::vector<Pending> pending_;
  std::vector<Waiting> waiting_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
