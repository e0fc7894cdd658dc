// Multi-resource lock service with one node per PROCESS over loopback TCP.
//
// The distributed sibling of service::ThreadedLockSpace: the same
// service::NodeRuntime per resource (strand-confined protocol state
// machine, client gate, lease), the same consistent-hash Directory
// placement — but each process runs exactly ONE node, and the runtimes'
// link is the event loop: protocol messages cross real sockets as codec
// frames instead of strand posts.
// Protocol code is unchanged (the substitution argument of DESIGN.md,
// extended to a third substrate): a MutexNode cannot tell whether its
// Context::send lands in a sibling strand or on the wire.
//
// Wiring: construct, listen() to learn this node's port, exchange ports
// out of band (the fork harness in process_harness.hpp uses pipes),
// connect() to every LOWER-numbered peer, start(), then
// wait_connected() to rendezvous the full mesh before first use.
//
// Fault surface: a peer socket that dies without the GOODBYE handshake
// is a crashed node. With recovery enabled (the default), the space runs
// the wire membership-repair protocol: every survivor observes the same
// EOF, quorum::elect_regenerator picks the smallest live node, and the
// winner announces a fresh epoch plus the compact survivor
// fault::Membership with a REPAIR frame. Survivors fence their old world
// at the announced epoch (stale-epoch frames are dropped at decode,
// stale grants are discarded by the client gate) and answer REPAIR-ACK;
// the winner installs the regenerated world — re-minting the token —
// only after every survivor has acked and no local client still holds
// the old critical section (a holder's unlock completes the deferred
// install, the wire analogue of the threaded substrate's pending
// repair). Repaired resources grant kOk again. Without a live strict
// majority — or with recovery disabled — every resource is conservatively
// marked unavailable and waiters drain with LockError::kUnavailable.
//
// Exclusivity witnessing is per-process here (a node cannot observe
// another process's occupancy); the multi-process harness shares an
// occupancy counter via a MAP_SHARED region to restore the cross-node
// witness in tests.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "exec/executor.hpp"
#include "fault/membership.hpp"
#include "proto/algorithm.hpp"
#include "service/directory.hpp"
#include "service/lease.hpp"
#include "service/node_runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/tree.hpp"
#include "transport/event_loop.hpp"

namespace dmx::transport {

using service::LockError;

class RepairMessage;
class RepairAckMessage;

struct DistributedLockSpaceConfig {
  /// This process's node id (1..n).
  NodeId self = kNilNode;
  int n = 0;
  proto::Algorithm algorithm;
  std::vector<std::string> resources;
  /// Shared logical tree for path-forwarding algorithms; defaults to a
  /// star centered on node 1 when required and absent (must be identical
  /// in every process — it is derived from config, so it is).
  std::optional<topology::Tree> tree;
  int directory_vnodes = 16;
  std::uint64_t seed = 1;
  /// Worker threads in the strand pool; 1 is plenty for one node.
  int workers = 1;
  int spin = 64;
  /// Run the wire membership-repair protocol after a peer crash. When
  /// false, any crash conservatively marks every resource unavailable
  /// (the pre-repair transport behavior).
  bool recovery_enabled = true;
  /// Invoked on the repair WINNER, once per installed epoch and resource,
  /// after every survivor has fenced (acked) but before the regenerated
  /// world can grant. The test harness hooks this to retire a SIGKILLed
  /// holder's shared-memory occupancy before any survivor re-enters.
  /// Runs on the event-loop thread or an unlocking client thread; keep it
  /// brief and non-blocking.
  std::function<void(Epoch, const fault::Membership&)> on_repair;
  /// Local grant-chaining lease: how many consecutive releases may hand
  /// the CS straight to a co-located waiter (one condvar wake, zero wire
  /// frames) before the token must be offered back to the protocol so
  /// remote requesters keep bounded waiting.
  service::LeaseConfig lease;
};

/// The space is the link of its runtimes (see send()).
class DistributedLockSpace final : private service::Link {
 public:
  explicit DistributedLockSpace(DistributedLockSpaceConfig config);
  ~DistributedLockSpace();

  DistributedLockSpace(const DistributedLockSpace&) = delete;
  DistributedLockSpace& operator=(const DistributedLockSpace&) = delete;

  // --- Mesh bring-up (in order) ------------------------------------------

  /// Binds this node's loopback listening socket; returns the port.
  std::uint16_t listen();
  /// Dials peer `peer` (its id must be < self()). Call for every lower id.
  void connect(NodeId peer, std::uint16_t port);
  /// Starts the event loop; higher-numbered peers dial us.
  void start();
  /// Blocks until all n-1 peers are connected and identified.
  bool wait_connected(std::chrono::milliseconds timeout);
  /// Orderly departure: GOODBYE to every peer, drain, stop loop and pool.
  /// Idempotent; the destructor calls it.
  ///
  /// Departure is COLLECTIVE among the nodes still alive: the protocol
  /// state machines route through every live node, so a node that leaves
  /// while a sibling still wants locks strands that sibling's requests
  /// (GOODBYE suppresses the crash path by design — it must not poison a
  /// whole run). Quiesce the survivors (e.g. the shared-memory barrier
  /// the test harness uses) before the first shutdown(); crashed nodes
  /// need no quiescing — repair already cut them out of the membership.
  void shutdown();

  // --- Introspection ------------------------------------------------------

  NodeId self() const { return config_.self; }
  int nodes() const { return config_.n; }
  int resource_count() const { return directory_.resource_count(); }
  const service::Directory& directory() const { return directory_; }
  ResourceId lookup(std::string_view name) const {
    return directory_.lookup(name);
  }
  const std::string& name(ResourceId r) const { return directory_.name(r); }
  NodeId home_node(ResourceId r) const { return directory_.home_node(r); }
  /// Current fence epoch of resource `r` (0 until the first repair).
  Epoch epoch(ResourceId r) const;

  // --- Client API (this process's node only) ------------------------------

  /// Blocks until this node holds resource `r`'s critical section.
  void lock(ResourceId r);
  /// Bounded-wait lock; kUnavailable once the live majority is gone.
  LockError try_lock_for(ResourceId r, std::chrono::milliseconds timeout);
  void unlock(ResourceId r);

  /// TEST HOOK: bumps resource `r`'s fence epoch without installing a
  /// world behind it, then wakes parked clients — the repair-wakeup
  /// stimulus in isolation. Grants minted before the bump become stale
  /// and no fresh world will ever grant, so the resource is dead for
  /// granting afterwards; use only to pin client-gate deadline behavior.
  void debug_fence_epoch(ResourceId r);

  std::uint64_t entries(ResourceId r) const;
  std::uint64_t total_entries() const;
  const EventLoopStats& transport_stats() const { return loop_->stats(); }
  /// Protocol frames dropped at decode because their epoch predated the
  /// resource's fence (old-world traffic after a repair).
  std::uint64_t stale_frames_dropped() const {
    return stale_frames_.load(std::memory_order_relaxed);
  }
  /// Releases that handed the CS straight to a co-located waiter without
  /// a wire round, and lease windows that closed with local waiters
  /// still queued (the bounded-waiting cap at work).
  std::uint64_t chained_grants() const {
    return space_.chained_grants.load(std::memory_order_relaxed);
  }
  std::uint64_t lease_yields() const {
    return space_.lease_yields.load(std::memory_order_relaxed);
  }

  /// First protocol, exclusivity, or transport error observed, if any.
  std::optional<std::string> first_error() const;

  /// Merged runtime metrics for this process: every telemetry metric plus
  /// the executor counters (exec.*) and the event-loop counters (wire.*)
  /// folded in.
  telemetry::MetricsSnapshot telemetry_snapshot() const;

 private:
  /// A protocol frame parked by the epoch fence: its epoch is newer than
  /// the installed world (the REPAIR announcing that epoch has not been
  /// processed, or the install is still awaiting acks). Drained — behind
  /// the strand's reset task — once the matching world installs.
  struct QueuedFrame {
    Epoch epoch = 0;
    NodeId from = kNilNode;
    net::MessagePtr message;
  };

  /// Per-resource repair controller state; `mutex` guards every field.
  /// Lock order: RepairState::mutex before the runtime's gate mutex,
  /// never the reverse.
  struct RepairState {
    std::mutex mutex;
    /// Highest epoch announced (and fenced at) for this resource; always
    /// mirrored into the resource's fence epoch while `mutex` is held.
    Epoch target = 0;
    /// Epoch whose world reset has been posted to the strand.
    Epoch installed = 0;
    /// Regenerator of the target epoch.
    NodeId winner = kNilNode;
    /// Survivor membership of the target epoch (null before any repair).
    std::shared_ptr<const fault::Membership> membership;
    /// Install (and, on a survivor, the ack) waits for the local holder's
    /// unlock — the old-world critical section finishes undisturbed.
    bool await_unlock = false;
    /// Winner only: which original ids have acked the target epoch.
    std::vector<std::uint8_t> acks;
    int acks_missing = 0;
    std::vector<QueuedFrame> queued;
    /// telemetry::now_ns() when this repair was first observed (0 = no
    /// repair in flight); spans deferrals, so fault.repair_ns measures
    /// what a waiting client experienced.
    std::uint64_t repair_started_ns = 0;
  };

  service::NodeRuntime& runtime(ResourceId r);
  service::ResourceState& resource(ResourceId r) const;
  RepairState& repair(ResourceId r);
  /// The runtimes' link: frames the message (stamped with the sending
  /// world's epoch) and ships it to `to`.
  void send(ResourceId r, NodeId from, NodeId to, net::MessagePtr message,
            Epoch epoch) override;
  void on_frame(const FrameHeader& header, net::MessagePtr message);
  void on_peer_down(NodeId peer);
  /// REPAIR from the elected winner: fence at the announced epoch, then
  /// install + ack (or defer both to the local holder's unlock).
  void handle_repair(const FrameHeader& header, const RepairMessage& message);
  /// REPAIR-ACK at the winner: count it, install once all survivors
  /// fenced; an ack above our target supersedes a lagging announcement.
  void handle_repair_ack(const FrameHeader& header,
                         const RepairAckMessage& message);
  /// Winner side: bump the fence past `at_least`, announce REPAIR to
  /// every survivor, then try to install. Caller holds `rs.mutex`.
  void start_repair_locked(ResourceId r, RepairState& rs, Epoch at_least);
  /// Winner side: install iff every ack arrived and no local client holds
  /// the old-world CS. Caller holds `rs.mutex`.
  void try_install_locked(ResourceId r, RepairState& rs);
  /// Posts the regenerated world (reset, re-request, parked-frame drain)
  /// to the strand and marks the target epoch installed. Caller holds
  /// `rs.mutex`.
  void install_world_locked(ResourceId r, RepairState& rs);
  /// Marks every resource unavailable and wakes its clients.
  void give_up_all();
  /// Socket-liveness snapshot by original id (self is always up).
  std::vector<std::uint8_t> live_nodes() const;

  DistributedLockSpaceConfig config_;
  service::Directory directory_;
  exec::Executor executor_;
  service::SpaceState space_;
  std::unique_ptr<EventLoop> loop_;
  std::vector<std::unique_ptr<service::ResourceState>> resources_;
  /// Socket-liveness vector, by original node id. Self is never down, so
  /// peer_down_[self] doubles as the runtimes' never-set liveness flag.
  std::unique_ptr<std::atomic<bool>[]> peer_down_;
  /// This process's runtime per resource, indexed by ResourceId.
  std::vector<std::unique_ptr<service::NodeRuntime>> runtimes_;
  std::vector<std::unique_ptr<RepairState>> repair_;  // by ResourceId
  std::atomic<std::uint64_t> stale_frames_{0};
  std::atomic<bool> shut_down_{false};
  telemetry::HistogramId repair_hist_;
};

}  // namespace dmx::transport
