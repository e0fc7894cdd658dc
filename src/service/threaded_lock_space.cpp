#include "service/threaded_lock_space.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quorum/election.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::service {

ThreadedLockSpace::ThreadedLockSpace(ThreadedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      executor_(exec::ExecutorConfig{config_.workers, config_.spin}),
      space_(config_.lease, config_.jitter_us, /*inline_requests=*/false) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a ThreadedLockSpace needs at least one resource");
  for (const auto& [override_name, override_algorithm] :
       config_.resource_algorithms) {
    DMX_CHECK_MSG(std::find(config_.resources.begin(),
                            config_.resources.end(),
                            override_name) != config_.resources.end(),
                  "algorithm override for unknown resource "
                      << override_name);
  }
  // Resolve each resource's algorithm (default or per-name override).
  std::vector<const proto::Algorithm*> algorithms;
  bool needs_tree = false;
  for (const std::string& name : config_.resources) {
    const proto::Algorithm* algorithm = &config_.algorithm;
    for (const auto& [override_name, override_algorithm] :
         config_.resource_algorithms) {
      if (override_name == name) algorithm = &override_algorithm;
    }
    algorithms.push_back(algorithm);
    needs_tree = needs_tree || algorithm->needs_tree;
  }
  if (needs_tree && !config_.tree.has_value()) {
    config_.tree = topology::Tree::star(config_.n, 1);
  }

  node_down_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(config_.n) + 1);
  for (NodeId v = 0; v <= config_.n; ++v) {
    node_down_[static_cast<std::size_t>(v)].store(false);
  }
  const std::size_t m = config_.resources.size();
  resources_.reserve(m);
  repair_.reserve(m);
  runtimes_.reserve(m * static_cast<std::size_t>(config_.n));
  Rng seeder(config_.seed);
  for (std::size_t i = 0; i < m; ++i) {
    const std::string& name = config_.resources[i];
    const ResourceId r = directory_.open(name);
    resources_.push_back(
        std::make_unique<ResourceState>(r, name, *algorithms[i]));
    repair_.push_back(std::make_unique<RepairState>());
    repair_.back()->membership = fault::Membership::identity(config_.n);
    auto protocol_nodes = initial_world(
        *algorithms[i], config_.n, directory_.home_node(r),
        config_.tree.has_value() ? &*config_.tree : nullptr, config_.seed);
    for (NodeId v = 1; v <= config_.n; ++v) {
      runtimes_.push_back(std::make_unique<NodeRuntime>(
          space_, *resources_.back(), static_cast<Link&>(*this), executor_, v, config_.n,
          std::move(protocol_nodes[static_cast<std::size_t>(v)]),
          node_down_[static_cast<std::size_t>(v)], seeder.next()));
    }
  }

  auto& registry = telemetry::Registry::global();
  repair_hist_ = registry.histogram("fault.repair_ns");
  unavail_hist_ = registry.histogram("fault.unavail_window_ns");
}

ThreadedLockSpace::~ThreadedLockSpace() {
  // Stop the pool first: workers finish their current task and queued
  // strand tasks are destroyed unrun when the runtimes go away (their
  // captured messages free cross-thread through the pool's owner-return
  // path).
  executor_.shutdown();
}

NodeRuntime& ThreadedLockSpace::runtime(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  return *runtimes_[static_cast<std::size_t>(r) *
                        static_cast<std::size_t>(config_.n) +
                    static_cast<std::size_t>(v) - 1];
}

ResourceState& ThreadedLockSpace::resource(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *resources_[static_cast<std::size_t>(r)];
}

const proto::Algorithm& ThreadedLockSpace::algorithm(ResourceId r) const {
  return resource(r).algorithm;
}

bool ThreadedLockSpace::is_node_up(NodeId v) const {
  DMX_CHECK(v >= 1 && v <= config_.n);
  return !node_down_[static_cast<std::size_t>(v)].load(
      std::memory_order_relaxed);
}

Epoch ThreadedLockSpace::epoch(ResourceId r) const {
  return resource(r).epoch.load(std::memory_order_acquire);
}

void ThreadedLockSpace::lock(ResourceId r, NodeId v) {
  const LockError error = runtime(r, v).lock(nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource " << name(r) << " on node " << v
                                    << " can never be granted (crashed node "
                                       "or dead resource)");
}

LockError ThreadedLockSpace::try_lock_for(ResourceId r, NodeId v,
                                          std::chrono::milliseconds timeout) {
  return runtime(r, v).lock(&timeout);
}

void ThreadedLockSpace::unlock(ResourceId r, NodeId v) {
  if (!runtime(r, v).unlock()) return;
  // Complete a repair that deferred while this node held the lock. Taken
  // without the gate mutex: maybe_repair acquires gate mutexes under the
  // repair mutex, never the reverse. A chained or ghost unlock cannot
  // complete one: chaining stops at the first crash, and rs.pending
  // implies one happened.
  bool complete = false;
  {
    RepairState& rs = *repair_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> guard(rs.mutex);
    complete = rs.pending;
    rs.pending = false;
  }
  if (complete) maybe_repair(r);
}

void ThreadedLockSpace::crash(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (node_down_[static_cast<std::size_t>(v)].exchange(true)) return;
  space_.fault_seen.store(true, std::memory_order_seq_cst);
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kCrash,
                                    /*resource=*/0, v);
  for (int r = 0; r < resource_count(); ++r) runtime(r, v).revoke();
  for (int r = 0; r < resource_count(); ++r) {
    if (config_.recovery_enabled) {
      maybe_repair(r);
    } else if (initial_holder(algorithm(r), home_node(r)) == v) {
      // Token-loss detection without regeneration: the resource whose
      // initial token holder died can never grant again. Surface it
      // instead of letting try_lock_for wait forever.
      resource(r).mark_unavailable();
      wake_all(r);
    }
  }
}

void ThreadedLockSpace::recover(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (!node_down_[static_cast<std::size_t>(v)].exchange(false)) return;
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRecover,
                                    /*resource=*/0, v);
  if (!config_.recovery_enabled) return;  // back up, but never reintegrated
  for (int r = 0; r < resource_count(); ++r) {
    maybe_repair(r);
  }
}

void ThreadedLockSpace::maybe_repair(ResourceId r) {
  RepairState& rs = *repair_[static_cast<std::size_t>(r)];
  ResourceState& res = resource(r);
  std::lock_guard<std::mutex> repair_guard(rs.mutex);

  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  bool current = true;
  for (NodeId v = 1; v <= config_.n; ++v) {
    up[static_cast<std::size_t>(v)] =
        node_down_[static_cast<std::size_t>(v)].load(std::memory_order_seq_cst)
            ? 0
            : 1;
    current = current && (up[static_cast<std::size_t>(v)] != 0) ==
                             rs.membership.contains(v);
  }
  if (current) {
    rs.pending = false;
    return;
  }

  // The membership is stale: a regeneration is (or stays) in flight. The
  // clock starts at first observation and survives deferrals, so the
  // histogram reflects what a waiting client actually experienced.
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart, r);
  }

  const NodeId winner = quorum::elect_regenerator(config_.n, up);
  if (winner == kNilNode) {
    // No live majority: the resource stays degraded until enough nodes
    // come back. Waiters are told rather than left hanging.
    res.mark_unavailable();
    wake_all(r);
    return;
  }

  // Fence first: from here on no grant minted in the old world can be
  // consumed (the gate revalidates grants against this), and every
  // old-tagged strand task drops itself.
  const Epoch e = res.epoch.load(std::memory_order_acquire) + 1;
  res.epoch.store(e, std::memory_order_seq_cst);

  // Defer while a live survivor is inside its CS; its unlock completes
  // the repair (the epoch stays bumped, so the resource quiesces).
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (up[static_cast<std::size_t>(v)] && runtime(r, v).holding()) {
      rs.pending = true;
      return;
    }
  }

  auto shared = std::make_shared<const fault::Membership>(
      fault::Membership::survivors(config_.n, up));
  auto fresh = repaired_world(res.algorithm, *shared, winner, e, config_.seed);
  rs.membership = *shared;
  if (res.unavailable.exchange(false, std::memory_order_seq_cst)) {
    const std::uint64_t since =
        res.unavailable_since_ns.exchange(0, std::memory_order_relaxed);
    if (since != 0) {
      telemetry::observe(unavail_hist_, telemetry::now_ns() - since);
    }
  }

  // Install every survivor's fresh instance first; only then re-issue
  // requests for parked waiters, so any message a re-request triggers is
  // posted behind the destination's reset in its strand FIFO.
  for (NodeId rank = 1; rank <= shared->size(); ++rank) {
    runtime(r, shared->original_of(rank))
        .install(e, shared, std::move(fresh[static_cast<std::size_t>(rank)]));
  }
  for (NodeId rank = 1; rank <= shared->size(); ++rank) {
    runtime(r, shared->original_of(rank)).rerequest(e);
  }
  telemetry::observe(repair_hist_,
                     telemetry::now_ns() - rs.repair_started_ns);
  rs.repair_started_ns = 0;
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairDone, r,
                                    winner, static_cast<std::int64_t>(e));
}

void ThreadedLockSpace::wake_all(ResourceId r) {
  for (NodeId v = 1; v <= config_.n; ++v) runtime(r, v).wake();
}

std::uint64_t ThreadedLockSpace::total_entries() const {
  std::uint64_t sum = 0;
  for (int r = 0; r < resource_count(); ++r) sum += entries(r);
  return sum;
}

std::uint64_t ThreadedLockSpace::entries(ResourceId r) const {
  return resource(r).entries.load(std::memory_order_relaxed);
}

int ThreadedLockSpace::local_waiters(ResourceId r, NodeId v) {
  return runtime(r, v).local_waiters();
}

std::optional<std::string> ThreadedLockSpace::first_error() const {
  return space_.first_error();
}

telemetry::MetricsSnapshot ThreadedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = telemetry::Registry::global().snapshot();
  const exec::ExecutorStats stats = executor_.stats();
  snap.set_counter("exec.tasks_executed", stats.tasks_executed);
  snap.set_counter("exec.steals", stats.steals);
  snap.set_counter("exec.parks", stats.parks);
  snap.set_counter("exec.injector_polls", stats.injector_polls);
  snap.set_counter("service.messages_sent", messages_sent());
  snap.set_counter("client.chained_grants", chained_grants());
  snap.set_counter("client.lease_yields", lease_yields());
  // The hot path records wait time on the per-resource lane only; fold
  // the lanes into the process-wide view here, in cold code.
  snap.roll_up("client.wait_ns");
  return snap;
}

void ThreadedLockSpace::send(ResourceId r, NodeId from, NodeId to,
                             net::MessagePtr message, Epoch epoch) {
  DMX_CHECK(to >= 1 && to <= config_.n && to != from);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  // The network drops traffic to and from dead nodes (sends still count,
  // as in the simulated substrate).
  if (!is_node_up(from) || !is_node_up(to)) return;
  runtime(r, to).deliver(from, std::move(message), epoch);
}

}  // namespace dmx::service
