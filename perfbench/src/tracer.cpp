#include "tracer.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/flight_recorder.hpp"

namespace perfbench {

namespace {

using dmx::telemetry::FlightEvent;
using dmx::telemetry::FlightRecord;

/// Time between flight-ring copies. Each copy merges and sorts every ring
/// (a few thousand records), so this sets the tracing overhead.
constexpr auto kSamplePeriod = std::chrono::milliseconds(10);
/// A full ring's oldest records may be overwritten while it is copied;
/// the join window starts this many records into every full ring.
constexpr int kWrapMargin = 64;
/// Hand-offs starting this close to the copy may still be in flight and
/// are left out (a hand-off takes tens of microseconds).
constexpr std::uint64_t kTailMarginNs = 1'000'000;
/// Join buffer cap: every ring's capacity for a generous thread count.
constexpr std::size_t kMaxEvents = 64 * dmx::telemetry::kFlightRingCapacity;

constexpr int kReturn = -1;  // benchmark lock() return, not a flight event

}  // namespace

Tracer::Tracer(std::vector<const SpanRing*> rings, bool wire, int resources)
    : rings_(std::move(rings)),
      wire_(wire),
      stages_(kStageCount),
      pending_(static_cast<std::size_t>(resources)),
      waiting_(static_cast<std::size_t>(resources) * kMaxNodes) {
  events_.reserve(kMaxEvents);
}

Tracer::~Tracer() { stop(); }

void Tracer::start() {
  stop_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void Tracer::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Tracer::loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kSamplePeriod);
    sample();
  }
}

double Tracer::stage_median_sum() const {
  const auto med = [this](Stage s) { return stages_[s].quantile(0.5); };
  if (wire_) {
    return med(kReleaseToSend) + med(kSendToRecv) + med(kRecvToGrant) +
           med(kGrantToReturn);
  }
  return med(kReleaseToForward) + med(kForwardToGrant) + med(kGrantToReturn);
}

void Tracer::sample() {
  const std::uint64_t copied_at = now_ns();
  const std::vector<FlightRecord> records =
      dmx::telemetry::FlightRecorder::tail(-1);

  // Join window start: the kWrapMargin-th oldest record of every full
  // ring. Fault-category events live in a separate ring and are skipped.
  std::vector<int> per_thread;
  std::vector<std::uint64_t> margin_t;
  for (const FlightRecord& rec : records) {
    if (rec.event >= FlightEvent::kPeerUp) continue;
    if (rec.thread >= per_thread.size()) {
      per_thread.resize(rec.thread + 1, 0);
      margin_t.resize(rec.thread + 1, 0);
    }
    if (++per_thread[rec.thread] == kWrapMargin) margin_t[rec.thread] = rec.t_ns;
  }
  std::uint64_t from = 0;
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    if (per_thread[t] >= dmx::telemetry::kFlightRingCapacity) {
      from = std::max(from, margin_t[t]);
    }
  }
  if (copied_at <= from + kTailMarginNs) return;
  const std::uint64_t last_start = copied_at - kTailMarginNs;

  events_.clear();
  for (const FlightRecord& rec : records) {
    if (rec.t_ns < from || rec.t_ns > copied_at) continue;
    switch (rec.event) {
      case FlightEvent::kRequest:
      case FlightEvent::kTimeout:
      case FlightEvent::kUnavailable:
      case FlightEvent::kRelease:
      case FlightEvent::kTokenForward:
      case FlightEvent::kFrameSend:
      case FlightEvent::kFrameRecv:
      case FlightEvent::kGrant:
        if (events_.size() < kMaxEvents) {
          events_.push_back({rec.t_ns, rec.resource, rec.node, rec.arg,
                             static_cast<int>(rec.event)});
        }
        break;
      default:
        break;
    }
  }
  for (const SpanRing* ring : rings_) {
    ring->for_each_in(from, copied_at,
                      [this](std::uint64_t t, std::int32_t r, std::int32_t v) {
                        if (events_.size() < kMaxEvents) {
                          events_.push_back({t, r, v, 0, kReturn});
                        }
                      });
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });

  std::fill(pending_.begin(), pending_.end(), Pending{});
  std::fill(waiting_.begin(), waiting_.end(), Waiting{});
  for (const Event& e : events_) {
    if (e.resource < 0 ||
        static_cast<std::size_t>(e.resource) >= pending_.size() ||
        e.node < 0 || e.node >= kMaxNodes) {
      continue;
    }
    Pending& p = pending_[static_cast<std::size_t>(e.resource)];
    Waiting& wait_of_node = waiting(e.resource, e.node);
    if (e.kind == kReturn) {
      if (p.step == 5 && e.node == p.to) {
        if (wire_) {
          stages_[kReleaseToSend].record(p.t_send - p.t_release);
          stages_[kSendToRecv].record(p.t_recv - p.t_send);
          stages_[kRecvToGrant].record(p.t_grant - p.t_recv);
        }
        stages_[kReleaseToForward].record(p.t_forward - p.t_release);
        stages_[kForwardToGrant].record(p.t_grant - p.t_forward);
        stages_[kGrantToReturn].record(e.t - p.t_grant);
        p.step = 0;
      }
      continue;
    }
    switch (static_cast<FlightEvent>(e.kind)) {
      case FlightEvent::kRequest:
        if (wait_of_node.count++ == 0) wait_of_node.since = e.t;
        break;
      case FlightEvent::kTimeout:
      case FlightEvent::kUnavailable:
        if (wait_of_node.count > 0) --wait_of_node.count;
        break;
      case FlightEvent::kRelease:
        p = Pending{};
        if (e.t <= last_start) {
          p.step = 1;
          p.from = e.node;
          p.t_release = e.t;
        }
        break;
      case FlightEvent::kTokenForward:  // node = destination, arg = sender
        // Only a hand-off to a client that was already waiting when the
        // holder released counts, as in the benchmark's delay.
        if (p.step == 1 && e.arg == p.from && wait_of_node.count > 0 &&
            wait_of_node.since < p.t_release) {
          p.step = wire_ ? 2 : 4;
          p.to = e.node;
          p.t_forward = e.t;
        }
        break;
      case FlightEvent::kFrameSend:  // node = destination
        if (p.step == 2 && e.node == p.to) {
          p.step = 3;
          p.t_send = e.t;
        }
        break;
      case FlightEvent::kFrameRecv:  // node = sender
        if (p.step == 3 && e.node == p.from) {
          p.step = 4;
          p.t_recv = e.t;
        }
        break;
      case FlightEvent::kGrant:
        if (wait_of_node.count > 0) --wait_of_node.count;
        if (p.step == 4 && e.node == p.to) {
          p.step = 5;
          p.t_grant = e.t;
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace perfbench
