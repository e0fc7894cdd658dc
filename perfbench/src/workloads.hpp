// The benchmark's workloads. Each is a closed loop: a client issues its
// next acquire only after the previous critical section ended, with zero
// hold time, against the library's public blocking client API. Client
// threads plus pool workers never exceed four, the size of the machine
// the figures in README.md come from.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// One client's tallies for one phase. Allocated before set-up and
/// cleared between phases, so a run's footprint is fixed.
struct ClientStats {
  Histogram latency;  // lock()/try_lock_for() call to successful return
  Histogram handoff;  // holder's unlock() to a waiting other node's return
  Histogram outage;   // crash() call to each resource's next grant
  Histogram unlock;   // unlock() call duration (traced phases only)
  std::uint64_t attempted = 0;
  std::uint64_t entries = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;

  void clear();
  void merge(const ClientStats& other);
};

/// Cumulative counters of a workload's space(s); phases take deltas.
struct Counters {
  std::uint64_t entries = 0;   // total_entries()
  std::uint64_t messages = 0;  // messages_sent(), or wire frames sent
  std::uint64_t tasks = 0;
  std::uint64_t activations = 0;
  std::uint64_t parks = 0;
  std::uint64_t steals = 0;
  std::uint64_t chained = 0;
  std::uint64_t lease_yields = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t partial_frames = 0;
};

/// The fault thread's record for one phase (threaded-crash only).
struct FaultStats {
  Histogram crash_call;
  Histogram recover_call;
  std::uint64_t cycles = 0;
  /// Crashes or recoveries after which some resource was not granted
  /// again within the deadline.
  std::uint64_t missed_deadlines = 0;
};

struct PhaseResult {
  ClientStats clients;
  FaultStats fault;
  double seconds = 0.0;
  Counters before;
  Counters after;
};

class Workload {
 public:
  /// Names accepted by make(): tcp-pingpong, threaded-zipf, threaded-crash.
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed);

  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the space(s) and serves a first grant on every resource.
  virtual void setup() = 0;
  /// Destroys the space(s); setup() may follow.
  virtual void teardown() = 0;
  virtual Counters counters() const = 0;
  /// Every space's first_error(), joined ("" when all are clean).
  virtual std::string first_errors() const = 0;
  /// True on the TCP substrate.
  virtual bool wire() const = 0;

  int resources() const { return static_cast<int>(witness_.size()); }
  int clients() const { return static_cast<int>(stats_.size()); }

  /// Runs every client (and the fault thread, if any) for `seconds`.
  /// With `tracer`, clients also stamp their returns and unlock times,
  /// and the tracer samples for the duration of the phase.
  PhaseResult run_phase(double seconds, Tracer* tracer);

  std::vector<const SpanRing*> span_rings() const;

  /// A fault thread crashes and recovers a node during every phase; the
  /// workload's delay is then the outage, not the hand-off.
  virtual bool has_fault_thread() const { return false; }

  /// Seeded bug for the witness self-test: every client skips lock() and
  /// unlock() on about one acquire in `every` (0 = never).
  void set_skip_lock_every(int every) { skip_lock_every_ = every; }

 protected:
  struct Draw {
    std::int32_t resource;
    std::int32_t node;
  };

  Workload(std::uint64_t seed, int resources, int clients);

  /// Next acquire of client `client`.
  virtual Draw draw(int client, Rng& rng) = 0;
  /// Acquires; false on a failed attempt (timeout, unavailable).
  virtual bool acquire(std::int32_t r, std::int32_t v) = 0;
  virtual void release(std::int32_t r, std::int32_t v) = 0;
  /// Fault injection thread body (when has_fault_thread()).
  virtual void fault_loop(FaultStats&) {}

  /// Seeded resource names: the seed moves every resource's home node.
  std::vector<std::string> resource_names(const char* prefix) const;

  // Fault-thread helpers: stamp every resource as awaiting a grant since
  // `t`, then block until each was granted, the deadline passed (false),
  // or the phase is stopping (true).
  void await_all(std::uint64_t t, bool is_crash);
  bool wait_all_granted(std::chrono::milliseconds deadline);
  /// Sleeps up to `d`, returning early when the phase stops.
  void pause(std::chrono::milliseconds d);
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  std::uint64_t seed_;

 private:
  void client_loop(int client, SpanRing* ring, bool traced);

  std::vector<ResourceWitness> witness_;
  std::vector<ClientStats> stats_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  FaultStats fault_;
  int skip_lock_every_ = 0;
  std::atomic<bool> stop_{false};

  // Fault-thread hand-shake: clients count down resources granted since
  // the last crash()/recover() stamp.
  std::atomic<int> awaiting_{0};
  std::atomic<bool> awaiting_crash_{false};
  std::mutex fault_mutex_;
  std::condition_variable fault_cv_;
};

}  // namespace perfbench
