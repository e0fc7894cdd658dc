// One node's runtime for one resource, shared by both hardware lock
// spaces.
//
// In Neilsen's algorithm each node is one event-at-a-time state machine
// (REQUEST/PRIVILEGE handlers over NEXT/FOLLOW/HOLDING), and the
// substrate only delivers messages. NodeRuntime is that split in code:
// it owns the (resource, node) protocol instance on an exec::Strand, the
// client gate that parks application threads until the instance grants,
// and the lease that chains the critical section between co-located
// waiters. It reaches its substrate only through a Link. The threaded
// space runs n runtimes per resource over an in-process link; the TCP
// space runs one per resource over its event loop.
//
// Strand confinement: the protocol instance, its epoch and membership,
// and the rank-translating Context are touched only by strand tasks; the
// strand's serialization publishes task i's writes to task i+1. The
// client gate (waiters, grant hand-off, hold, chain) bridges application
// threads and strand tasks under the gate mutex.
//
// Crash fencing: every protocol task carries the epoch it was minted in
// and drops itself when that no longer matches the strand's, or when the
// owner has flipped the node's liveness flag — the thread-kill
// equivalent. A repair bumps the resource's fence epoch, so queued
// old-world work dies unobserved without ever blocking a strand, then
// installs a fresh compact-world instance with an unfenced reset task
// that every later same-strand task observes. Post-repair the instance
// speaks ranks of the survivor membership; the link keeps original ids.
//
// Dispatch: unlock() posts its release with Strand::post_claim and, when
// the strand was idle, runs it on the calling application thread
// (drain()) instead of waking a pool worker. lock() does the same with
// its request where the space asks for it (SpaceState::inline_requests).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "exec/strand.hpp"
#include "fault/membership.hpp"
#include "net/message_kind.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/lease.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/tree.hpp"

namespace dmx::service {

/// Outcome of a bounded-wait lock attempt.
enum class LockError {
  kOk = 0,
  /// The wait deadline passed without a grant; the request stays posted
  /// and a grant that arrives with nobody waiting is released back.
  kTimeout,
  /// The lock can never be granted: the calling node has crashed, or the
  /// resource is dead (its token died with a crashed node and recovery is
  /// disabled or lacks a live majority).
  kUnavailable,
};

/// The substrate as a runtime sees it: carry one protocol message of
/// world `epoch` for resource `r` from node `from` to node `to` (original
/// ids, never ranks).
class Link {
 public:
  virtual void send(ResourceId r, NodeId from, NodeId to,
                    net::MessagePtr message, Epoch epoch) = 0;

 protected:
  ~Link() = default;
};

/// Per-resource state every runtime of that resource in one space shares:
/// the fence epoch, the dead-resource flag, the exclusivity witness, the
/// entry count and the interned telemetry lane.
struct ResourceState {
  ResourceState(ResourceId id, std::string name, proto::Algorithm algorithm);

  /// Flips the resource unavailable, stamping the window start once.
  void mark_unavailable();

  const ResourceId id;
  const std::string name;
  const proto::Algorithm algorithm;
  /// Current reconfiguration epoch (0 until the first repair). Tasks
  /// posted from application threads are tagged with it, and a consumed
  /// grant is revalidated against it.
  std::atomic<Epoch> epoch{0};
  std::atomic<bool> unavailable{false};
  /// telemetry::now_ns() when the resource last became unavailable (0
  /// when it is not).
  std::atomic<std::uint64_t> unavailable_since_ns{0};
  /// Holders inside the critical section as seen by this space (0 or 1
  /// when exclusion holds).
  std::atomic<int> occupancy{0};
  std::atomic<std::uint64_t> entries{0};

  telemetry::HistogramId wait_hist;
  telemetry::CounterId ok_count;
  telemetry::CounterId timeout_count;
  telemetry::CounterId unavailable_count;
  /// Interned kinds of the token-carrying messages, for flight-recording
  /// token forwards.
  std::vector<net::MessageKind> token_kinds;
};

class NodeRuntime;

/// State every runtime of one lock space shares.
class SpaceState {
 public:
  SpaceState(LeaseConfig lease, unsigned jitter_us, bool inline_requests);

  SpaceState(const SpaceState&) = delete;
  SpaceState& operator=(const SpaceState&) = delete;

  void record_error(const std::string& what);
  /// Records the error, then releases every parked application thread of
  /// the space — no grant is ever coming once a handler has thrown.
  void fail(const std::string& what);
  std::optional<std::string> first_error() const;

  const LeaseConfig lease;
  /// Artificial per-delivery delay bound in microseconds (0 = none).
  const unsigned jitter_us;
  /// Whether lock() runs an idle strand's protocol request on the calling
  /// thread rather than posting it to the pool. The TCP space does: its
  /// request usually leaves on the wire, and the inline run saves a
  /// worker wake-up per hand-off. The threaded space posts: run inline,
  /// an uncontended local lock never parks, co-located clients rarely
  /// overlap, and the lease then seldom gets to chain or yield (the
  /// lease-cap test stops seeing yields in some runs).
  const bool inline_requests;
  std::atomic<bool> failed{false};
  /// Set once the space observes any node crash; from then on no release
  /// chains, so repairs see a quiescing resource.
  std::atomic<bool> fault_seen{false};
  std::atomic<std::uint64_t> chained_grants{0};
  std::atomic<std::uint64_t> lease_yields{0};
  telemetry::HistogramId hold_hist;
  telemetry::HistogramId chain_hist;

 private:
  friend class NodeRuntime;
  std::vector<NodeRuntime*> runtimes_;  // registered at construction
  mutable std::mutex error_mutex_;
  std::optional<std::string> first_error_;
};

/// One (resource, node) protocol state machine with its strand, client
/// gate and lease.
class NodeRuntime {
 public:
  /// `n` is the initial world's size; `down` is the node's liveness flag,
  /// which only the runtime's owner ever sets. Construct every runtime of
  /// a space before any of them runs.
  NodeRuntime(SpaceState& space, ResourceState& resource, Link& link,
              exec::Executor& executor, NodeId self, int n,
              std::unique_ptr<proto::MutexNode> node,
              const std::atomic<bool>& down, std::uint64_t seed);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  // --- Client gate (application threads) ---------------------------------

  /// Parks until this node holds the critical section; a null timeout
  /// waits forever. Same-node waiters are served in arrival order.
  LockError lock(const std::chrono::milliseconds* timeout);
  /// Leaves the critical section: chains it to the next local waiter
  /// while the lease allows, else releases into the protocol. Returns
  /// true iff the protocol got the release (a repair deferred on this
  /// holder may now complete). An unlock without a hold is tolerated as
  /// a no-op only when revoke() took that hold away.
  bool unlock();
  /// Whether an application thread of this node is inside the CS.
  bool holding();
  /// Application threads parked in lock(); racy by nature.
  int local_waiters();
  /// The node crashed: drop its hold (retiring the witness), pending
  /// grant and chain, and wake its waiters to see the liveness flag.
  void revoke();
  /// Wakes every parked waiter to re-check its predicate.
  void wake();

  // --- Substrate side -----------------------------------------------------

  /// Queues a protocol message of world `epoch` from `from` on the strand
  /// for the pool to run.
  void deliver(NodeId from, net::MessagePtr message, Epoch epoch);
  /// As deliver(), but on true the strand was idle and the caller owns
  /// its activation: it must call drain(), holding no lock a strand task
  /// takes.
  [[nodiscard]] bool deliver_claimed(NodeId from, net::MessagePtr message,
                                     Epoch epoch);
  void drain() { strand_.drain(); }
  /// Posts the unfenced reset task that moves this strand into world
  /// `epoch` with the fresh instance `node` over `membership`.
  void install(Epoch epoch, std::shared_ptr<const fault::Membership> membership,
               std::unique_ptr<proto::MutexNode> node);
  /// Posts the post-install re-request: the pre-repair protocol request
  /// died with the old epoch, so if application threads are still parked
  /// (or a request was posted and fenced), ask again in world `epoch`.
  /// Post it only after every runtime the request may reach has its
  /// install() queued.
  void rerequest(Epoch epoch);

 private:
  class Context final : public proto::Context {
   public:
    explicit Context(NodeRuntime& runtime) : runtime_(runtime) {}
    NodeId self() const override;
    int cluster_size() const override;
    void send(NodeId to, net::MessagePtr message) override;
    void grant() override;

   private:
    NodeRuntime& runtime_;
  };

  // Strand tasks.
  bool fenced(Epoch tag) const;
  void run_deliver(Epoch tag, NodeId from, net::MessagePtr message);
  void run_request(Epoch tag);
  void run_release(Epoch tag);
  void run_rerequest(Epoch tag);
  /// Runs one protocol call, turning a thrown check into a space failure.
  template <typename F>
  void protocol_call(F&& call);
  void on_grant();
  void maybe_jitter();
  bool down() const { return down_.load(std::memory_order_relaxed); }
  /// This node or the resource is dead: no grant is coming.
  bool unavailable() const {
    return down() || resource_.unavailable.load(std::memory_order_relaxed);
  }

  SpaceState& space_;
  ResourceState& resource_;
  Link& link_;
  const NodeId self_;
  const int n_;
  const std::atomic<bool>& down_;
  exec::Strand strand_;

  // Strand-confined protocol state.
  std::unique_ptr<proto::MutexNode> node_;
  Rng rng_;  // jitter
  /// Reconfiguration epoch this strand's instance belongs to and, post-
  /// repair, the compact membership it speaks (null = identity).
  Epoch epoch_ = 0;
  std::shared_ptr<const fault::Membership> membership_;
  /// Whether this world's instance has an unreleased protocol request in
  /// flight — dedupes the client's posted request against a repair's
  /// re-issue. Cleared by release and by install.
  bool request_outstanding_ = false;
  Context context_;

  /// Client gate; `mutex_` guards every field below except the trailing
  /// atomic.
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool requested_ = false;
  bool granted_ = false;
  /// Arrival-order tickets of the parked waiters: a grant (protocol or
  /// chained) is consumed only by the waiter whose ticket is at the
  /// front, so same-node waiters cannot overtake each other.
  std::deque<std::uint64_t> fifo_;
  std::uint64_t ticket_seq_ = 0;
  /// Epoch the pending grant was minted in: the consumer revalidates it
  /// against the resource's current epoch, so a grant from a world that a
  /// repair has since fenced is discarded instead of entering the CS
  /// alongside the regenerated token.
  Epoch granted_epoch_ = 0;
  /// Whether the pending grant rode the local chain (keeps the lease
  /// window open) or came from the protocol (opens a fresh window).
  bool grant_via_chain_ = false;
  bool held_ = false;
  /// Epoch the current holder's grant was minted in; a release chains
  /// only while it still matches the resource's epoch (no repair since).
  Epoch held_epoch_ = 0;
  /// telemetry::now_ns() when the current holder entered (0 = not held);
  /// closes the client.hold_ns histogram at unlock.
  std::uint64_t hold_started_ns_ = 0;
  /// Consecutive local hand-offs in the current lease window, and
  /// telemetry::now_ns() when the window opened (its first grant).
  int chain_len_ = 0;
  std::uint64_t chain_started_ns_ = 0;
  /// Holds taken away by revoke() whose holder has not unlocked yet.
  int revoked_holds_ = 0;
  /// node_->has_remote_request() as of this strand's last protocol task.
  /// It may lag by an in-flight message — the lease cap, not this hint,
  /// carries the bounded-waiting guarantee; the hint only decides whether
  /// a cap-expired lease may renew in place.
  std::atomic<bool> remote_pending_{false};
};

/// Initial token holder of a resource whose directory home is `home`:
/// the home, except that Singhal pins its token to node 1.
NodeId initial_holder(const proto::Algorithm& algorithm, NodeId home);

/// The initial n-node world of `algorithm` with the token at
/// initial_holder(algorithm, home). Index 0 is unused.
std::vector<std::unique_ptr<proto::MutexNode>> initial_world(
    const proto::Algorithm& algorithm, int n, NodeId home,
    const topology::Tree* tree, std::uint64_t seed);

/// A repaired world over `membership` (ranks 1..k) in epoch `epoch`, the
/// token regenerated at `winner` (an original id). Tree algorithms get a
/// star over the survivors rooted at the winner: diameter 2 from any
/// survivor to the token, independent of who died.
std::vector<std::unique_ptr<proto::MutexNode>> repaired_world(
    const proto::Algorithm& algorithm, const fault::Membership& membership,
    NodeId winner, Epoch epoch, std::uint64_t seed);

}  // namespace dmx::service
