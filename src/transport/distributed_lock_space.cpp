#include "transport/distributed_lock_space.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "quorum/election.hpp"
#include "telemetry/flight_recorder.hpp"
#include "transport/repair_messages.hpp"

namespace dmx::transport {

namespace {

/// Parked protocol frames per resource while an epoch transition is in
/// flight; beyond this the stream is pathological, not merely reordered.
constexpr std::size_t kMaxQueuedFrames = 4096;

}  // namespace

DistributedLockSpace::DistributedLockSpace(DistributedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      executor_(exec::ExecutorConfig{config_.workers, config_.spin}),
      space_(config_.lease, /*jitter_us=*/0, /*inline_requests=*/true) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(config_.self >= 1 && config_.self <= config_.n,
                "self id " << config_.self << " outside 1.." << config_.n);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a DistributedLockSpace needs at least one resource");
  if (config_.algorithm.needs_tree && !config_.tree.has_value()) {
    config_.tree = topology::Tree::star(config_.n, 1);
  }

  loop_ = std::make_unique<EventLoop>(
      EventLoopConfig{config_.self},
      [this](const FrameHeader& header, net::MessagePtr message) {
        on_frame(header, std::move(message));
      },
      [this](NodeId peer) { on_peer_down(peer); });

  peer_down_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(config_.n) + 1);
  for (NodeId v = 0; v <= config_.n; ++v) {
    peer_down_[static_cast<std::size_t>(v)].store(false);
  }
  const std::size_t m = config_.resources.size();
  resources_.reserve(m);
  runtimes_.reserve(m);
  repair_.reserve(m);
  for (const std::string& name : config_.resources) {
    const ResourceId r = directory_.open(name);
    resources_.push_back(std::make_unique<service::ResourceState>(
        r, name, config_.algorithm));
    repair_.push_back(std::make_unique<RepairState>());
    // Every process derives the same initial world; this one keeps only
    // its own instance.
    auto protocol_nodes = service::initial_world(
        config_.algorithm, config_.n, directory_.home_node(r),
        config_.tree.has_value() ? &*config_.tree : nullptr, config_.seed);
    runtimes_.push_back(std::make_unique<service::NodeRuntime>(
        space_, *resources_.back(), static_cast<service::Link&>(*this),
        executor_, config_.self,
        config_.n,
        std::move(protocol_nodes[static_cast<std::size_t>(config_.self)]),
        peer_down_[static_cast<std::size_t>(config_.self)], config_.seed));
  }
  repair_hist_ = telemetry::Registry::global().histogram("fault.repair_ns");
}

DistributedLockSpace::~DistributedLockSpace() { shutdown(); }

std::uint16_t DistributedLockSpace::listen() { return loop_->listen(); }

void DistributedLockSpace::connect(NodeId peer, std::uint16_t port) {
  DMX_CHECK_MSG(peer < config_.self,
                "mesh convention: node " << config_.self
                                         << " only dials lower ids, not "
                                         << peer);
  loop_->connect(peer, port);
}

void DistributedLockSpace::start() {
  // Higher ids dial us. A frame routed to one of them before the loop has
  // processed its HELLO (a forwarded REQUEST while the mesh is still
  // identifying) is parked, not dropped.
  for (NodeId v = config_.self + 1; v <= config_.n; ++v) loop_->expect(v);
  loop_->start();
}

bool DistributedLockSpace::wait_connected(std::chrono::milliseconds timeout) {
  return loop_->wait_for_peers(config_.n - 1, timeout);
}

void DistributedLockSpace::shutdown() {
  if (shut_down_.exchange(true)) return;
  loop_->stop();
  // Stop the pool after the loop: no more frames can arrive, and queued
  // strand tasks are destroyed unrun when the nodes go away.
  executor_.shutdown();
}

service::NodeRuntime& DistributedLockSpace::runtime(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *runtimes_[static_cast<std::size_t>(r)];
}

service::ResourceState& DistributedLockSpace::resource(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *resources_[static_cast<std::size_t>(r)];
}

DistributedLockSpace::RepairState& DistributedLockSpace::repair(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *repair_[static_cast<std::size_t>(r)];
}

Epoch DistributedLockSpace::epoch(ResourceId r) const {
  return resource(r).epoch.load(std::memory_order_acquire);
}

void DistributedLockSpace::send(ResourceId r, NodeId from, NodeId to,
                                net::MessagePtr message, Epoch epoch) {
  DMX_CHECK(from == config_.self && to >= 1 && to <= config_.n &&
            to != config_.self);
  // The wire analogue of the threaded substrate's traffic-to-dead-node
  // drop; repair re-requests cover anything lost here.
  if (peer_down_[static_cast<std::size_t>(to)].load(
          std::memory_order_relaxed)) {
    return;
  }
  try {
    // A false return means the peer vanished between the liveness check
    // and the send; the on_peer_down path handles it.
    loop_->send(to, epoch, r, *message);
  } catch (const net::WireError& e) {
    space_.fail(e.what());
  }
}

void DistributedLockSpace::on_frame(const FrameHeader& header,
                                    net::MessagePtr message) {
  if (header.to != config_.self) {
    space_.record_error("frame addressed to node " +
                        std::to_string(header.to) + " arrived at node " +
                        std::to_string(config_.self));
    return;
  }
  if (header.resource < 0 || header.resource >= resource_count()) {
    space_.record_error("frame for unknown resource " +
                        std::to_string(header.resource));
    return;
  }
  // Repair control frames are ABOUT the epoch transition, so they bypass
  // the epoch fence that governs protocol traffic.
  if (message->kind_id() == RepairMessage::interned_kind()) {
    handle_repair(header, static_cast<const RepairMessage&>(*message));
    return;
  }
  if (message->kind_id() == RepairAckMessage::interned_kind()) {
    handle_repair_ack(header,
                      static_cast<const RepairAckMessage&>(*message));
    return;
  }

  RepairState& rs = repair(header.resource);
  service::NodeRuntime& rt = runtime(header.resource);
  bool claimed;
  {
    std::lock_guard<std::mutex> guard(rs.mutex);
    if (header.epoch < rs.target) {
      // Old-world traffic after the fence went up: the sender had not yet
      // processed the repair announcement. Dropping it here is the wire
      // equivalent of the threaded substrate's fenced strand tasks.
      stale_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (header.epoch > rs.installed) {
      // The frame is from a world we have not installed yet (its REPAIR
      // is still in flight, or the install awaits acks); park it and
      // drain it behind the reset task once the matching world lands.
      if (rs.queued.size() >= kMaxQueuedFrames) {
        space_.record_error("repair frame queue overflow on resource " +
                            std::to_string(header.resource));
        return;
      }
      rs.queued.push_back(
          QueuedFrame{header.epoch, header.from, std::move(message)});
      return;
    }
    // Posted under rs.mutex, so the delivery keeps its FIFO place against
    // an install's reset task.
    claimed = rt.deliver_claimed(header.from, std::move(message),
                                 header.epoch);
  }
  // An idle strand runs here on the loop thread, which already holds the
  // frame: no pool worker wakes between the wire and the handler.
  if (claimed) rt.drain();
}

std::vector<std::uint8_t> DistributedLockSpace::live_nodes() const {
  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  for (NodeId v = 1; v <= config_.n; ++v) {
    up[static_cast<std::size_t>(v)] =
        peer_down_[static_cast<std::size_t>(v)].load(
            std::memory_order_seq_cst)
            ? 0
            : 1;
  }
  return up;
}

void DistributedLockSpace::give_up_all() {
  for (int r = 0; r < resource_count(); ++r) {
    resource(r).mark_unavailable();
    runtime(r).wake();
  }
}

void DistributedLockSpace::on_peer_down(NodeId peer) {
  if (peer < 1 || peer > config_.n) return;
  // Dedupe: a REPAIR announcement may have marked the peer down before
  // its EOF reached us, and teardown fires once per socket anyway.
  if (peer_down_[static_cast<std::size_t>(peer)].exchange(
          true, std::memory_order_seq_cst)) {
    return;
  }
  space_.fault_seen.store(true, std::memory_order_seq_cst);
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kCrash,
                                    /*resource=*/0, peer);
  if (!config_.recovery_enabled) {
    space_.record_error("peer node " + std::to_string(peer) +
                        " disconnected without goodbye");
    give_up_all();
    return;
  }
  const NodeId winner = quorum::elect_regenerator(config_.n, live_nodes());
  if (winner == kNilNode) {
    // No live strict majority: the space stays degraded forever (crashed
    // processes never rejoin the mesh). Waiters are told, not left
    // hanging.
    space_.record_error("no live majority after node " +
                        std::to_string(peer) + " crashed");
    give_up_all();
    return;
  }
  if (winner != config_.self) {
    // The winner's own event loop observed the same EOF and announces
    // REPAIR to us; if the winner itself is the next to die, its EOF
    // re-runs this election at every survivor.
    return;
  }
  for (int r = 0; r < resource_count(); ++r) {
    RepairState& rs = repair(r);
    std::lock_guard<std::mutex> guard(rs.mutex);
    start_repair_locked(r, rs, rs.target);
  }
}

void DistributedLockSpace::start_repair_locked(ResourceId r, RepairState& rs,
                                               Epoch at_least) {
  const std::vector<std::uint8_t> up = live_nodes();
  const NodeId winner = quorum::elect_regenerator(config_.n, up);
  if (winner == kNilNode) {
    resource(r).mark_unavailable();
    runtime(r).wake();
    return;
  }
  if (winner != config_.self) return;

  // Ballot-style epoch: round * n + winner id. Distinct winners can never
  // mint the same epoch, so two repairs racing after a mid-repair winner
  // death cannot fence different worlds at the same number (survivors of
  // one would silently satisfy the ack count of the other).
  const Epoch base = std::max(rs.target, at_least);
  const Epoch n = static_cast<Epoch>(config_.n);
  const Epoch e = (base / n + 1) * n + static_cast<Epoch>(config_.self);
  rs.target = e;
  rs.winner = winner;
  rs.membership = std::make_shared<const fault::Membership>(
      fault::Membership::survivors(config_.n, up));
  rs.acks.assign(static_cast<std::size_t>(config_.n) + 1, 0);
  rs.acks[static_cast<std::size_t>(config_.self)] = 1;
  rs.acks_missing = rs.membership->size() - 1;
  // Fence first: from here on no grant minted in the old world can be
  // consumed (the gate revalidates grants against this), and every
  // old-tagged strand task drops itself.
  resource(r).epoch.store(e, std::memory_order_seq_cst);
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart,
                                      r);
  }

  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(rs.membership->size()));
  for (NodeId rank = 1; rank <= rs.membership->size(); ++rank) {
    members.push_back(rs.membership->original_of(rank));
  }
  const RepairMessage announce(e, winner, std::move(members));
  for (NodeId rank = 1; rank <= rs.membership->size(); ++rank) {
    const NodeId v = rs.membership->original_of(rank);
    if (v == config_.self) continue;
    // Non-blocking: this runs on the loop thread (or under rs.mutex,
    // which the loop thread takes), and only the loop drains outboxes.
    loop_->send(v, e, r, announce, /*block_on_backpressure=*/false);
  }
  runtime(r).wake();
  try_install_locked(r, rs);
}

void DistributedLockSpace::handle_repair(const FrameHeader& header,
                                         const RepairMessage& message) {
  const ResourceId r = header.resource;
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  if (message.epoch() <= rs.target) {
    // Already fenced at (or past) this epoch. Ack with OUR target: equal
    // means a plain re-ack; above tells the lagging winner to re-announce
    // past a dead predecessor's higher fence.
    loop_->send(header.from, rs.target, r, RepairAckMessage(rs.target),
                /*block_on_backpressure=*/false);
    return;
  }
  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  bool self_in = false;
  for (const NodeId v : message.members()) {
    if (v < 1 || v > config_.n) {
      space_.record_error("repair membership contains node " +
                          std::to_string(v) + " outside 1.." +
                          std::to_string(config_.n));
      return;
    }
    up[static_cast<std::size_t>(v)] = 1;
    self_in = self_in || v == config_.self;
  }
  if (!self_in || !up[static_cast<std::size_t>(message.winner())]) {
    space_.record_error("repair membership from node " +
                        std::to_string(header.from) +
                        " excludes a live participant");
    return;
  }
  rs.target = message.epoch();
  rs.winner = message.winner();
  rs.membership = std::make_shared<const fault::Membership>(
      fault::Membership::survivors(config_.n, up));
  // The announcement is also a liveness report: nodes outside the
  // survivor set are dead even if their EOF has not reached us yet
  // (store, not exchange — the winner already ran the election).
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (v != config_.self && !up[static_cast<std::size_t>(v)]) {
      peer_down_[static_cast<std::size_t>(v)].store(
          true, std::memory_order_seq_cst);
    }
  }
  resource(r).epoch.store(rs.target, std::memory_order_seq_cst);
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart,
                                      r);
  }

  if (runtime(r).holding()) {
    // The old-world critical section finishes undisturbed; unlock installs
    // the fresh world and acks then. The fence above already guarantees no
    // SECOND old-world entry can happen meanwhile.
    rs.await_unlock = true;
  } else {
    install_world_locked(r, rs);
    loop_->send(header.from, rs.installed, r, RepairAckMessage(rs.installed),
                /*block_on_backpressure=*/false);
  }
  runtime(r).wake();
}

void DistributedLockSpace::handle_repair_ack(const FrameHeader& header,
                                             const RepairAckMessage& message) {
  const ResourceId r = header.resource;
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  if (rs.winner != config_.self) return;
  if (message.epoch() > rs.target) {
    // The acker is fenced past us: a predecessor winner announced a
    // higher epoch before dying. Re-announce above it so every survivor
    // converges on one world.
    start_repair_locked(r, rs, message.epoch());
    return;
  }
  if (message.epoch() < rs.target) return;  // ack for a superseded epoch
  const NodeId from = header.from;
  if (from < 1 || from > config_.n ||
      rs.acks[static_cast<std::size_t>(from)] != 0) {
    return;
  }
  rs.acks[static_cast<std::size_t>(from)] = 1;
  --rs.acks_missing;
  try_install_locked(r, rs);
}

void DistributedLockSpace::try_install_locked(ResourceId r, RepairState& rs) {
  if (rs.installed == rs.target) return;
  if (rs.winner != config_.self) return;
  if (rs.acks_missing > 0) return;
  if (runtime(r).holding()) {
    rs.await_unlock = true;
    return;
  }
  // Every survivor is fenced and nobody is inside the old critical
  // section anywhere: installing re-mints the token. The hook lets the
  // embedder retire state the dead holder abandoned (the test harness
  // clears its shared-memory occupancy here).
  if (config_.on_repair) config_.on_repair(rs.target, *rs.membership);
  install_world_locked(r, rs);
}

void DistributedLockSpace::install_world_locked(ResourceId r,
                                                RepairState& rs) {
  const Epoch e = rs.target;
  auto fresh = service::repaired_world(config_.algorithm, *rs.membership,
                                       rs.winner, e, config_.seed);
  service::NodeRuntime& rt = runtime(r);
  rt.install(e, rs.membership,
             std::move(fresh[static_cast<std::size_t>(
                 rs.membership->rank_of(config_.self))]));
  // Re-issue behind the reset for parked waiters; any message it triggers
  // lands behind the destination's own reset or in its parked queue.
  rt.rerequest(e);
  // Frames from world e that arrived before it was installed drain now,
  // behind the reset in strand FIFO; anything older is stale, anything
  // newer keeps waiting for its own install.
  std::size_t kept = 0;
  for (QueuedFrame& qf : rs.queued) {
    if (qf.epoch == e) {
      rt.deliver(qf.from, std::move(qf.message), e);
    } else if (qf.epoch > e) {
      rs.queued[kept++] = std::move(qf);
    } else {
      stale_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  rs.queued.resize(kept);
  rs.installed = e;
  rs.await_unlock = false;
  if (rs.repair_started_ns != 0) {
    telemetry::observe(repair_hist_,
                       telemetry::now_ns() - rs.repair_started_ns);
    rs.repair_started_ns = 0;
  }
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairDone, r,
                                    rs.winner, static_cast<std::int64_t>(e));
  rt.wake();
}

void DistributedLockSpace::debug_fence_epoch(ResourceId r) {
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  rs.target += 1;
  resource(r).epoch.store(rs.target, std::memory_order_seq_cst);
  runtime(r).wake();
}

void DistributedLockSpace::lock(ResourceId r) {
  const LockError error = runtime(r).lock(nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource "
                    << name(r)
                    << " can never be granted (no live majority)");
}

LockError DistributedLockSpace::try_lock_for(
    ResourceId r, std::chrono::milliseconds timeout) {
  return runtime(r).lock(&timeout);
}

void DistributedLockSpace::unlock(ResourceId r) {
  if (!runtime(r).unlock()) return;
  // Complete a repair that deferred while this client held the lock. A
  // chained unlock cannot: a repair fences the epoch before deferring,
  // which stops chaining. Taken without the gate mutex: the repair path
  // acquires it under rs.mutex, never the reverse.
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> repair_guard(rs.mutex);
  if (!rs.await_unlock) return;
  rs.await_unlock = false;
  if (rs.winner == config_.self) {
    try_install_locked(r, rs);
  } else if (rs.installed < rs.target) {
    const NodeId winner = rs.winner;
    install_world_locked(r, rs);
    // Non-blocking even off the loop thread: rs.mutex is held, and the
    // loop thread takes it in on_frame — waiting for the loop to drain an
    // outbox here could deadlock.
    loop_->send(winner, rs.installed, r, RepairAckMessage(rs.installed),
                /*block_on_backpressure=*/false);
  }
}

std::uint64_t DistributedLockSpace::entries(ResourceId r) const {
  return resource(r).entries.load(std::memory_order_relaxed);
}

std::uint64_t DistributedLockSpace::total_entries() const {
  std::uint64_t total = 0;
  for (int r = 0; r < resource_count(); ++r) total += entries(r);
  return total;
}

std::optional<std::string> DistributedLockSpace::first_error() const {
  if (auto error = space_.first_error()) return error;
  return loop_->first_error();
}

telemetry::MetricsSnapshot DistributedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = telemetry::Registry::global().snapshot();
  const exec::ExecutorStats stats = executor_.stats();
  snap.set_counter("exec.tasks_executed", stats.tasks_executed);
  snap.set_counter("exec.steals", stats.steals);
  snap.set_counter("exec.parks", stats.parks);
  snap.set_counter("exec.injector_polls", stats.injector_polls);
  const EventLoopStats& wire = loop_->stats();
  snap.set_counter("wire.frames_sent",
                   wire.frames_sent.load(std::memory_order_relaxed));
  snap.set_counter("wire.frames_received",
                   wire.frames_received.load(std::memory_order_relaxed));
  snap.set_counter("wire.bytes_sent",
                   wire.bytes_sent.load(std::memory_order_relaxed));
  snap.set_counter("wire.bytes_received",
                   wire.bytes_received.load(std::memory_order_relaxed));
  snap.set_counter("wire.partial_frames",
                   wire.partial_frames.load(std::memory_order_relaxed));
  snap.set_counter("wire.backpressure_waits",
                   wire.backpressure_waits.load(std::memory_order_relaxed));
  snap.set_counter("wire.outbox_peak_bytes",
                   wire.outbox_peak_bytes.load(std::memory_order_relaxed));
  snap.set_counter("wire.epoll_wakeups",
                   wire.epoll_wakeups.load(std::memory_order_relaxed));
  snap.set_counter("wire.stale_epoch_frames",
                   stale_frames_.load(std::memory_order_relaxed));
  snap.set_counter("client.chained_grants", chained_grants());
  snap.set_counter("client.lease_yields", lease_yields());
  return snap;
}

}  // namespace dmx::transport
