#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/algorithm.hpp"
#include "service/threaded_lock_space.hpp"
#include "transport/distributed_lock_space.hpp"

namespace perfbench {

using namespace std::chrono_literals;
using dmx::NodeId;
using dmx::ResourceId;

void ClientStats::clear() {
  latency.clear();
  handoff.clear();
  outage.clear();
  unlock.clear();
  attempted = entries = failed = violations = 0;
}

void ClientStats::merge(const ClientStats& other) {
  latency.merge(other.latency);
  handoff.merge(other.handoff);
  outage.merge(other.outage);
  unlock.merge(other.unlock);
  attempted += other.attempted;
  entries += other.entries;
  failed += other.failed;
  violations += other.violations;
}

Workload::Workload(std::uint64_t seed, int resources, int clients)
    : seed_(seed),
      witness_(static_cast<std::size_t>(resources)),
      stats_(static_cast<std::size_t>(clients)) {
  for (int c = 0; c < clients; ++c) {
    rings_.push_back(std::make_unique<SpanRing>());
  }
}

Workload::~Workload() = default;

std::vector<std::string> Workload::resource_names(const char* prefix) const {
  Rng rng(seed_ ^ 0x6e616d6573ULL);
  std::vector<std::string> names;
  for (int i = 0; i < resources(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s-%d-%016llx", prefix, i,
                  static_cast<unsigned long long>(rng.next()));
    names.emplace_back(name);
  }
  return names;
}

std::vector<const SpanRing*> Workload::span_rings() const {
  std::vector<const SpanRing*> rings;
  for (const auto& ring : rings_) rings.push_back(ring.get());
  return rings;
}

void Workload::client_loop(int client, SpanRing* ring, bool traced) {
  ClientStats& st = stats_[static_cast<std::size_t>(client)];
  Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(client));
  Rng skip_rng(seed_ ^ (0x736b6970ULL + static_cast<std::uint64_t>(client)));
  const auto id = static_cast<std::uint32_t>(client + 1);
  try {
    while (!stop_.load(std::memory_order_relaxed)) {
      const Draw d = draw(client, rng);
      ResourceWitness& w = witness_[static_cast<std::size_t>(d.resource)];
      const bool skip = skip_lock_every_ > 0 &&
                        skip_rng.below(static_cast<std::uint64_t>(
                            skip_lock_every_)) == 0;
      ++st.attempted;
      const std::uint64_t t_call = now_ns();
      if (!skip && !acquire(d.resource, d.node)) {
        ++st.failed;
        continue;
      }
      const std::uint64_t t_return = now_ns();
      if (w.occupant.exchange(id, std::memory_order_acq_rel) != 0) {
        ++st.violations;
      }
      ++st.entries;
      st.latency.record(t_return - t_call);
      const std::int32_t prev_node =
          w.last_node.load(std::memory_order_relaxed);
      const std::uint64_t prev_unlock =
          w.last_unlock_ns.load(std::memory_order_relaxed);
      if (prev_node != 0 && prev_node != d.node && t_call < prev_unlock) {
        st.handoff.record(t_return - prev_unlock);
      }
      if (w.await_ns.load(std::memory_order_relaxed) != 0) {
        const std::uint64_t since = w.await_ns.exchange(0);
        if (since != 0) {
          if (awaiting_crash_.load(std::memory_order_relaxed)) {
            st.outage.record(t_return - since);
          }
          if (awaiting_.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> guard(fault_mutex_);
            fault_cv_.notify_all();
          }
        }
      }
      if (traced) ring->push(t_return, d.resource, d.node);
      const std::uint64_t t_unlock = now_ns();
      w.last_node.store(d.node, std::memory_order_relaxed);
      w.last_unlock_ns.store(t_unlock, std::memory_order_relaxed);
      std::uint32_t expected = id;
      if (!w.occupant.compare_exchange_strong(expected, 0,
                                              std::memory_order_acq_rel)) {
        ++st.violations;
      }
      if (!skip) release(d.resource, d.node);
      if (traced) st.unlock.record(now_ns() - t_unlock);
    }
  } catch (const std::exception& e) {
    // A failed space throws from every later call: count it, stop.
    std::fprintf(stderr, "client %d: %s\n", client, e.what());
    ++st.failed;
  }
}

PhaseResult Workload::run_phase(double seconds, Tracer* tracer) {
  PhaseResult result;
  for (ClientStats& st : stats_) st.clear();
  fault_ = FaultStats{};
  stop_.store(false);
  result.before = counters();

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients(); ++c) {
    threads.emplace_back([this, c, tracer] {
      client_loop(c, rings_[static_cast<std::size_t>(c)].get(),
                  tracer != nullptr);
    });
  }
  std::thread fault;
  if (has_fault_thread()) fault = std::thread([this] { fault_loop(fault_); });
  if (tracer != nullptr) tracer->start();

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));

  stop_.store(true);
  {
    std::lock_guard<std::mutex> guard(fault_mutex_);
    fault_cv_.notify_all();
  }
  if (fault.joinable()) fault.join();
  for (std::thread& t : threads) t.join();
  if (tracer != nullptr) tracer->stop();
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();

  result.after = counters();
  for (const ClientStats& st : stats_) result.clients.merge(st);
  result.fault = std::move(fault_);
  for (ResourceWitness& w : witness_) w.await_ns.store(0);
  return result;
}

void Workload::await_all(std::uint64_t t, bool is_crash) {
  awaiting_crash_.store(is_crash);
  awaiting_.store(resources());
  for (ResourceWitness& w : witness_) w.await_ns.store(t);
}

bool Workload::wait_all_granted(std::chrono::milliseconds deadline) {
  std::unique_lock<std::mutex> guard(fault_mutex_);
  return fault_cv_.wait_for(guard, deadline, [this] {
    return awaiting_.load() <= 0 || stopping();
  });
}

void Workload::pause(std::chrono::milliseconds d) {
  std::unique_lock<std::mutex> guard(fault_mutex_);
  fault_cv_.wait_for(guard, d, [this] { return stopping(); });
}

namespace {

// --- tcp-pingpong -----------------------------------------------------------

/// Two DistributedLockSpace nodes in this process joined by one loopback
/// TCP connection, one resource, one client per node: every entry is a
/// token hand-off across the wire.
class TcpPingpong final : public Workload {
 public:
  explicit TcpPingpong(std::uint64_t seed) : Workload(seed, 1, 2) {}
  ~TcpPingpong() override { teardown(); }

  void setup() override {
    const std::vector<std::string> names = resource_names("tcp");
    for (NodeId self = 1; self <= 2; ++self) {
      dmx::transport::DistributedLockSpaceConfig config;
      config.self = self;
      config.n = 2;
      config.algorithm = dmx::core::make_neilsen_algorithm();
      config.resources = names;
      config.seed = seed_;
      config.workers = 1;
      nodes_[self - 1] =
          std::make_unique<dmx::transport::DistributedLockSpace>(
              std::move(config));
    }
    const std::uint16_t port = nodes_[0]->listen();
    nodes_[1]->listen();
    nodes_[1]->connect(1, port);
    for (auto& node : nodes_) node->start();
    for (auto& node : nodes_) {
      if (!node->wait_connected(5000ms)) {
        throw std::runtime_error("tcp mesh did not connect");
      }
    }
    // A first grant on each node: one local, one across the wire,
    // whichever node the seed made the resource's home.
    for (auto& node : nodes_) {
      node->lock(0);
      node->unlock(0);
    }
  }

  void teardown() override {
    for (auto& node : nodes_) {
      if (node) node->shutdown();
    }
    for (auto& node : nodes_) node.reset();
  }

  Counters counters() const override {
    Counters c;
    for (const auto& node : nodes_) {
      const dmx::telemetry::MetricsSnapshot snap = node->telemetry_snapshot();
      const dmx::transport::EventLoopStats& wire = node->transport_stats();
      c.entries += node->total_entries();
      c.tasks += snap.counter("exec.tasks_executed");
      // Process-wide (both nodes' strands), so assigned, not summed.
      c.activations = snap.counter("exec.strand_activations");
      c.parks += snap.counter("exec.parks");
      c.steals += snap.counter("exec.steals");
      c.chained += node->chained_grants();
      c.lease_yields += node->lease_yields();
      c.frames_sent += wire.frames_sent.load();
      c.frames_received += wire.frames_received.load();
      c.bytes_sent += wire.bytes_sent.load();
      c.epoll_wakeups += wire.epoll_wakeups.load();
      c.partial_frames += wire.partial_frames.load();
    }
    c.messages = c.frames_sent;
    return c;
  }

  std::string first_errors() const override {
    std::string errors;
    for (const auto& node : nodes_) {
      if (node && node->first_error()) errors += *node->first_error() + "; ";
    }
    return errors;
  }

  bool wire() const override { return true; }

 protected:
  Draw draw(int client, Rng&) override { return {0, client + 1}; }
  bool acquire(std::int32_t r, std::int32_t v) override {
    nodes_[static_cast<std::size_t>(v - 1)]->lock(r);
    return true;
  }
  void release(std::int32_t r, std::int32_t v) override {
    nodes_[static_cast<std::size_t>(v - 1)]->unlock(r);
  }

 private:
  std::unique_ptr<dmx::transport::DistributedLockSpace> nodes_[2];
};

// --- the two ThreadedLockSpace workloads -------------------------------------

/// One ThreadedLockSpace (Neilsen, one pool worker) whose set-up serves a
/// first grant on every resource from node 1.
class ThreadedWorkload : public Workload {
 public:
  ~ThreadedWorkload() override { teardown(); }

  void setup() override {
    dmx::service::ThreadedLockSpaceConfig config;
    config.n = nodes_;
    config.algorithm = dmx::core::make_neilsen_algorithm();
    config.resources = resource_names(prefix_);
    config.seed = seed_;
    config.workers = 1;
    space_ = std::make_unique<dmx::service::ThreadedLockSpace>(
        std::move(config));
    for (ResourceId r = 0; r < resources(); ++r) {
      space_->lock(r, 1);
      space_->unlock(r, 1);
    }
  }
  void teardown() override { space_.reset(); }

  Counters counters() const override {
    Counters c;
    const dmx::telemetry::MetricsSnapshot snap = space_->telemetry_snapshot();
    c.entries = space_->total_entries();
    c.messages = space_->messages_sent();
    c.tasks = snap.counter("exec.tasks_executed");
    c.activations = snap.counter("exec.strand_activations");
    c.parks = snap.counter("exec.parks");
    c.steals = snap.counter("exec.steals");
    c.chained = space_->chained_grants();
    c.lease_yields = space_->lease_yields();
    return c;
  }
  std::string first_errors() const override {
    return space_ && space_->first_error() ? *space_->first_error() : "";
  }
  bool wire() const override { return false; }

 protected:
  ThreadedWorkload(std::uint64_t seed, const char* prefix, int nodes,
                   int resources, int clients)
      : Workload(seed, resources, clients), prefix_(prefix), nodes_(nodes) {}

  void release(std::int32_t r, std::int32_t v) override {
    space_->unlock(r, v);
  }

  std::unique_ptr<dmx::service::ThreadedLockSpace> space_;

 private:
  const char* prefix_;
  int nodes_;
};

/// 8 nodes, 64 resources drawn Zipf(0.99) over a seeded rank permutation;
/// three clients each draw a node uniformly per acquire.
class ThreadedZipf final : public ThreadedWorkload {
 public:
  static constexpr int kNodes = 8;
  static constexpr int kResources = 64;
  static constexpr double kSkew = 0.99;

  explicit ThreadedZipf(std::uint64_t seed)
      : ThreadedWorkload(seed, "zipf", kNodes, kResources, 3),
        by_rank_(kResources) {
    Rng rng(seed ^ 0x7a697066ULL);
    for (int i = 0; i < kResources; ++i) {
      by_rank_[static_cast<std::size_t>(i)] = i;
    }
    for (int i = kResources - 1; i > 0; --i) {
      std::swap(by_rank_[static_cast<std::size_t>(i)],
                by_rank_[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    }
    double total = 0.0;
    for (int k = 1; k <= kResources; ++k) total += 1.0 / std::pow(k, kSkew);
    double cumulative = 0.0;
    for (int k = 1; k <= kResources; ++k) {
      cumulative += 1.0 / std::pow(k, kSkew) / total;
      cdf_.push_back(cumulative);
    }
  }

 protected:
  Draw draw(int, Rng& rng) override {
    const double u = rng.unit();
    std::size_t rank = 0;
    while (rank + 1 < cdf_.size() && cdf_[rank] < u) ++rank;
    return {by_rank_[rank],
            static_cast<std::int32_t>(1 + rng.below(kNodes))};
  }
  bool acquire(std::int32_t r, std::int32_t v) override {
    space_->lock(r, v);
    return true;
  }

 private:
  std::vector<std::int32_t> by_rank_;
  std::vector<double> cdf_;
};

/// 5 nodes, 16 uniformly drawn resources, two clients on nodes 1-2 using
/// try_lock_for, and a fault thread that crashes and recovers node 5 in a
/// loop: the only path through quorum election, epoch fencing and token
/// regeneration.
class ThreadedCrash final : public ThreadedWorkload {
 public:
  static constexpr int kNodes = 5;
  static constexpr int kResources = 16;
  static constexpr NodeId kVictim = 5;
  static constexpr auto kTryFor = 1000ms;
  static constexpr auto kGrantDeadline = 2000ms;
  static constexpr auto kPause = 5ms;

  explicit ThreadedCrash(std::uint64_t seed)
      : ThreadedWorkload(seed, "crash", kNodes, kResources, 2) {}

  bool has_fault_thread() const override { return true; }

 protected:
  Draw draw(int client, Rng& rng) override {
    return {static_cast<std::int32_t>(rng.below(kResources)), client + 1};
  }
  bool acquire(std::int32_t r, std::int32_t v) override {
    return space_->try_lock_for(r, v, kTryFor) ==
           dmx::service::LockError::kOk;
  }

  void fault_loop(FaultStats& fs) override {
    while (!stopping()) {
      std::uint64_t t = now_ns();
      await_all(t, /*is_crash=*/true);
      space_->crash(kVictim);
      fs.crash_call.record(now_ns() - t);
      if (!wait_all_granted(kGrantDeadline)) ++fs.missed_deadlines;
      pause(kPause);

      t = now_ns();
      await_all(t, /*is_crash=*/false);
      space_->recover(kVictim);
      fs.recover_call.record(now_ns() - t);
      if (!wait_all_granted(kGrantDeadline)) ++fs.missed_deadlines;
      if (!stopping()) ++fs.cycles;
      pause(kPause);
    }
  }
};

}  // namespace

std::unique_ptr<Workload> Workload::make(const std::string& name,
                                         std::uint64_t seed) {
  if (name == "tcp-pingpong") return std::make_unique<TcpPingpong>(seed);
  if (name == "threaded-zipf") return std::make_unique<ThreadedZipf>(seed);
  if (name == "threaded-crash") return std::make_unique<ThreadedCrash>(seed);
  return nullptr;
}

}  // namespace perfbench
