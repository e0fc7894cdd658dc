#include "service/node_runtime.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::service {

ResourceState::ResourceState(ResourceId id, std::string name,
                             proto::Algorithm algorithm)
    : id(id), name(std::move(name)), algorithm(std::move(algorithm)) {
  // Resolve every metric id once, here in cold code; the lock/unlock hot
  // paths then record through plain ids.
  auto& registry = telemetry::Registry::global();
  wait_hist = registry.histogram("client.wait_ns." + this->name);
  ok_count = registry.counter("client.ok." + this->name);
  timeout_count = registry.counter("client.timeout." + this->name);
  unavailable_count = registry.counter("client.unavailable." + this->name);
  for (const std::string& kind : this->algorithm.token_message_kinds) {
    token_kinds.push_back(net::MessageKind::of(kind));
  }
}

void ResourceState::mark_unavailable() {
  if (!unavailable.exchange(true, std::memory_order_seq_cst)) {
    unavailable_since_ns.store(telemetry::now_ns(),
                               std::memory_order_relaxed);
    telemetry::FlightRecorder::record(
        telemetry::FlightEvent::kResourceUnavailable, id);
  }
}

SpaceState::SpaceState(LeaseConfig lease, unsigned jitter_us,
                       bool inline_requests)
    : lease(lease), jitter_us(jitter_us), inline_requests(inline_requests) {
  auto& registry = telemetry::Registry::global();
  hold_hist = registry.histogram("client.hold_ns");
  chain_hist = registry.histogram("client.chain_len");
}

void SpaceState::record_error(const std::string& what) {
  std::lock_guard<std::mutex> guard(error_mutex_);
  if (!first_error_.has_value()) first_error_ = what;
}

void SpaceState::fail(const std::string& what) {
  record_error(what);
  failed.store(true, std::memory_order_seq_cst);
  for (NodeRuntime* runtime : runtimes_) runtime->wake();
}

std::optional<std::string> SpaceState::first_error() const {
  std::lock_guard<std::mutex> guard(error_mutex_);
  return first_error_;
}

NodeRuntime::NodeRuntime(SpaceState& space, ResourceState& resource,
                         Link& link, exec::Executor& executor, NodeId self,
                         int n, std::unique_ptr<proto::MutexNode> node,
                         const std::atomic<bool>& down, std::uint64_t seed)
    : space_(space), resource_(resource), link_(link), self_(self), n_(n),
      down_(down), strand_(executor), node_(std::move(node)), rng_(seed),
      context_(*this) {
  space_.runtimes_.push_back(this);
}

// --- Context ----------------------------------------------------------------

NodeId NodeRuntime::Context::self() const {
  return runtime_.membership_ != nullptr
             ? runtime_.membership_->rank_of(runtime_.self_)
             : runtime_.self_;
}

int NodeRuntime::Context::cluster_size() const {
  return runtime_.membership_ != nullptr ? runtime_.membership_->size()
                                         : runtime_.n_;
}

void NodeRuntime::Context::send(NodeId to, net::MessagePtr message) {
  const NodeId to_original = runtime_.membership_ != nullptr
                                 ? runtime_.membership_->original_of(to)
                                 : to;
  const ResourceState& resource = runtime_.resource_;
  // Token forwards are the paper's central cost; flight-record them so a
  // failure dump shows the token's path (integer kind compare, no string).
  for (const net::MessageKind kind : resource.token_kinds) {
    if (message->kind_id() == kind) {
      telemetry::FlightRecorder::record(telemetry::FlightEvent::kTokenForward,
                                        resource.id, to_original,
                                        /*arg=*/runtime_.self_);
      break;
    }
  }
  runtime_.link_.send(resource.id, runtime_.self_, to_original,
                      std::move(message), runtime_.epoch_);
}

void NodeRuntime::Context::grant() { runtime_.on_grant(); }

// --- Strand tasks -----------------------------------------------------------

bool NodeRuntime::fenced(Epoch tag) const { return tag != epoch_ || down(); }

template <typename F>
void NodeRuntime::protocol_call(F&& call) {
  try {
    call();
  } catch (const std::exception& e) {
    space_.fail(e.what());
  }
  // Published after every protocol task, so a holder's unlock can consult
  // it without touching strand-confined state.
  remote_pending_.store(node_->has_remote_request(),
                        std::memory_order_relaxed);
}

void NodeRuntime::run_deliver(Epoch tag, NodeId from,
                              net::MessagePtr message) {
  if (space_.failed.load(std::memory_order_relaxed) || fenced(tag)) return;
  protocol_call([&] {
    maybe_jitter();
    node_->on_message(context_,
                      membership_ != nullptr ? membership_->rank_of(from)
                                             : from,
                      *message);
  });
}

void NodeRuntime::run_request(Epoch tag) {
  if (space_.failed.load(std::memory_order_relaxed) || fenced(tag)) return;
  // A repair's re-issue may have beaten this task into the new world
  // (one outstanding protocol request per node, ever).
  if (request_outstanding_) return;
  request_outstanding_ = true;
  protocol_call([&] { node_->request_cs(context_); });
}

void NodeRuntime::run_release(Epoch tag) {
  if (space_.failed.load(std::memory_order_relaxed) || fenced(tag)) return;
  request_outstanding_ = false;
  protocol_call([&] { node_->release_cs(context_); });
}

void NodeRuntime::run_rerequest(Epoch tag) {
  if (space_.failed.load(std::memory_order_relaxed) || fenced(tag)) return;
  if (request_outstanding_) return;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    requested_ = requested_ || waiting_ > 0;
    if (!requested_) return;
  }
  request_outstanding_ = true;
  protocol_call([&] { node_->request_cs(context_); });
}

void NodeRuntime::on_grant() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (down() || waiting_ == 0) {
      // Nobody will consume this grant — every waiter timed out, or the
      // node crashed between request and grant. Hand the CS straight back
      // so the resource keeps flowing. Posted under the gate mutex, as in
      // unlock(): a racing lock() must not slip its request ahead of this
      // release, or the request would find this one still outstanding,
      // drop itself, and leave every later waiter without a request.
      requested_ = false;
      const Epoch tag = epoch_;  // on_grant runs on the strand
      strand_.post([this, tag] { run_release(tag); });
      return;
    }
    granted_ = true;
    granted_epoch_ = epoch_;
    grant_via_chain_ = false;
  }
  cv_.notify_all();
}

void NodeRuntime::maybe_jitter() {
  if (space_.jitter_us == 0) return;
  const auto us = static_cast<unsigned>(
      rng_.uniform_int(0, static_cast<std::int64_t>(space_.jitter_us)));
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// --- Substrate side ---------------------------------------------------------

void NodeRuntime::deliver(NodeId from, net::MessagePtr message, Epoch epoch) {
  strand_.post([this, epoch, from, msg = std::move(message)]() mutable {
    run_deliver(epoch, from, std::move(msg));
  });
}

bool NodeRuntime::deliver_claimed(NodeId from, net::MessagePtr message,
                                  Epoch epoch) {
  return strand_.post_claim(
      [this, epoch, from, msg = std::move(message)]() mutable {
        run_deliver(epoch, from, std::move(msg));
      });
}

void NodeRuntime::install(Epoch epoch,
                          std::shared_ptr<const fault::Membership> membership,
                          std::unique_ptr<proto::MutexNode> node) {
  // Unfenced: the reset IS the epoch transition on this strand.
  strand_.post([this, epoch, membership = std::move(membership),
                node = std::move(node)]() mutable {
    node_ = std::move(node);
    epoch_ = epoch;
    membership_ = std::move(membership);
    request_outstanding_ = false;
    remote_pending_.store(node_->has_remote_request(),
                          std::memory_order_relaxed);
  });
}

void NodeRuntime::rerequest(Epoch epoch) {
  strand_.post([this, epoch] { run_rerequest(epoch); });
}

// --- Client gate ------------------------------------------------------------

LockError NodeRuntime::lock(const std::chrono::milliseconds* timeout) {
  const ResourceId r = resource_.id;
  const std::uint64_t wait_started_ns = telemetry::now_ns();
  telemetry::FlightRecorder::record_at(
      wait_started_ns, telemetry::FlightEvent::kRequest, r, self_);
  const auto deadline =
      timeout != nullptr ? std::chrono::steady_clock::now() + *timeout
                         : std::chrono::steady_clock::time_point::max();
  std::uint64_t grant_ns = 0;
  {
    std::unique_lock<std::mutex> guard(mutex_);
    ++waiting_;
    const std::uint64_t ticket = ticket_seq_++;
    fifo_.push_back(ticket);
    // One protocol request at a time per (resource, node): the first local
    // waiter requests; later waiters ride local hand-off (unlock posts the
    // next request once the current holder leaves). A dead node or
    // resource gets no request at all: the wait below reports it.
    if (!requested_ && !held_ && !unavailable()) {
      requested_ = true;
      const Epoch tag = resource_.epoch.load(std::memory_order_acquire);
      auto task = [this, tag] { run_request(tag); };
      if (!space_.inline_requests) {
        strand_.post(std::move(task));
      } else if (strand_.post_claim(std::move(task))) {
        // Run the idle strand on this thread; on_grant takes the gate
        // mutex, so the request runs with it released (a local token
        // grants before the wait below even starts).
        guard.unlock();
        strand_.drain();
        guard.lock();
      }
    }
    const auto ready = [this, ticket] {
      return (granted_ && fifo_.front() == ticket) ||
             space_.failed.load(std::memory_order_relaxed) || unavailable();
    };
    while (true) {
      bool signalled = true;
      if (timeout == nullptr) {
        cv_.wait(guard, ready);
      } else {
        // Re-armed against the ORIGINAL deadline after every stale-grant
        // wake: a repair never extends a bounded wait.
        signalled = cv_.wait_until(guard, deadline, ready);
      }
      if (signalled && granted_ && fifo_.front() == ticket) {
        // Revalidate against the current epoch: a repair may have fenced
        // the world this grant came from, in which case the regenerated
        // token supersedes it and entering would break exclusion. The
        // repair's re-request covers us; keep waiting.
        granted_ = false;
        if (granted_epoch_ != resource_.epoch.load(std::memory_order_acquire)) {
          continue;
        }
        requested_ = false;
        --waiting_;
        fifo_.pop_front();
        held_ = true;
        held_epoch_ = granted_epoch_;
        // One clock read serves the hold stamp, the wait histogram, and
        // the grant flight event.
        grant_ns = telemetry::now_ns();
        hold_started_ns_ = grant_ns;
        if (grant_via_chain_) {
          grant_via_chain_ = false;  // window stays open, length counted
        } else {
          chain_len_ = 0;  // fresh protocol grant opens a fresh window
          chain_started_ns_ = grant_ns;
        }
        break;
      }
      --waiting_;
      fifo_.erase(std::find(fifo_.begin(), fifo_.end(), ticket));
      if (!signalled) {
        // Deadline passed. The request stays posted; a grant arriving with
        // nobody waiting is handed straight back by on_grant.
        guard.unlock();
        // The waiter behind us is the new front; a pending grant it was
        // fenced off may now be its to consume.
        cv_.notify_all();
        telemetry::count(resource_.timeout_count);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kTimeout, r,
                                          self_);
        return LockError::kTimeout;
      }
      if (unavailable()) {
        telemetry::count(resource_.unavailable_count);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kUnavailable,
                                          r, self_);
        return LockError::kUnavailable;
      }
      // A protocol handler threw somewhere in the space; waiting for a
      // grant would hang forever. Surface the failure to the caller
      // (details in first_error()).
      DMX_CHECK_MSG(false, "lock service failed while node "
                               << self_ << " waited on resource "
                               << resource_.name << "; see first_error()");
    }
  }
  // Exclusivity witness: the grant we just consumed must be the only
  // occupancy of this resource the space can see.
  const int prev = resource_.occupancy.fetch_add(1);
  if (prev != 0) {
    space_.record_error("mutual exclusion violated on resource " +
                        resource_.name + ": node " + std::to_string(self_) +
                        " entered while occupancy was " +
                        std::to_string(prev));
  }
  resource_.entries.fetch_add(1, std::memory_order_relaxed);
  // Per-resource lane only; the process-wide "client.wait_ns" roll-up is
  // synthesized at snapshot time, not paid for on every acquisition.
  if (telemetry::sample_1_in_8()) {
    telemetry::observe(resource_.wait_hist, grant_ns - wait_started_ns);
  }
  telemetry::count(resource_.ok_count);
  telemetry::FlightRecorder::record_at(grant_ns, telemetry::FlightEvent::kGrant,
                                       r, self_);
  return LockError::kOk;
}

bool NodeRuntime::unlock() {
  const ResourceId r = resource_.id;
  const LeaseConfig& lease = space_.lease;
  // One clock read ahead of the mutex serves the lease-window check, the
  // hold histogram, and the release/chain flight event.
  const std::uint64_t release_ns = telemetry::now_ns();
  std::uint64_t hold_started_ns = 0;
  bool chained = false;
  int chain_arg = 0;
  int ended_chain = 0;  // lease window closed at this length (0 = none)
  bool yielded_with_waiters = false;
  bool claimed = false;  // this thread owns the strand activation
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!held_) {
      // crash() revoked this node's hold under its holder; the zombie's
      // unlock is a ghost, not an error.
      if (revoked_holds_ > 0) {
        --revoked_holds_;
        return false;
      }
      DMX_CHECK_MSG(false, "unlock of resource " << resource_.name
                                                 << " on node " << self_
                                                 << " which does not hold it");
    }
    held_ = false;
    hold_started_ns = hold_started_ns_;
    hold_started_ns_ = 0;
    // The witness retires only after the held-check passed (a bogus unlock
    // must not drive the counter negative), yet before the release reaches
    // the protocol — after that the next grant may already increment it.
    resource_.occupancy.fetch_sub(1);
    // Re-read: if a repair fenced us while we held, the release is minted
    // in the NEW epoch and drops itself (the old world is discarded whole).
    const Epoch tag = resource_.epoch.load(std::memory_order_acquire);
    // Local grant chaining: with waiters parked on this node and the
    // lease not exhausted, hand the CS straight to the next one — one
    // condvar wake, zero protocol messages. Never across a fault: a
    // repair fences (tag != held_epoch_) before it can defer on this
    // holder, and once the space has seen any crash chaining stops for
    // good, so repairs and token-loss detection see a quiescing resource.
    if (waiting_ > 0 && tag == held_epoch_ &&
        !space_.fault_seen.load(std::memory_order_relaxed) &&
        !space_.failed.load(std::memory_order_relaxed)) {
      int chain = chain_len_;
      const bool window_ok = lease.max_hold_ns == 0 ||
                             release_ns - chain_started_ns_ < lease.max_hold_ns;
      bool hand_off = window_ok && lease_chain_allowed(lease, chain);
      if (!hand_off && lease.max_chain != 0 &&
          lease_renewable(lease, resource_.algorithm.holder_sees_remote_requests,
                          remote_pending_.load(std::memory_order_relaxed))) {
        // Lease expired but the protocol instance can see that no remote
        // request is pending: renew in place instead of a pointless
        // release/re-request round. Blind algorithms (Maekawa, Central
        // clients) never take this branch, keeping the cap unconditional
        // where remote demand is invisible.
        ended_chain = chain;
        chain = 0;
        chain_started_ns_ = release_ns;
        hand_off = true;
      }
      if (hand_off) {
        chain_len_ = chain + 1;
        chain_arg = chain_len_;
        granted_ = true;
        granted_epoch_ = held_epoch_;
        grant_via_chain_ = true;
        chained = true;
      }
    }
    if (!chained) {
      ended_chain = chain_len_;
      chain_len_ = 0;
      yielded_with_waiters = waiting_ > 0;
      // Strand FIFO orders the release ahead of the follow-up request,
      // and posting under the gate mutex keeps a racing lock() on another
      // thread from slipping its request in between. The drain waits
      // until the mutex is released (on_grant takes it).
      claimed = strand_.post_claim([this, tag] { run_release(tag); });
      if (waiting_ > 0 && !requested_) {
        requested_ = true;
        strand_.post([this, tag] { run_request(tag); });
      }
    }
  }
  // Telemetry off the gate mutex.
  if (hold_started_ns != 0 && telemetry::sample_1_in_8()) {
    telemetry::observe(space_.hold_hist, release_ns - hold_started_ns);
  }
  if (ended_chain > 0) {
    telemetry::observe(space_.chain_hist,
                       static_cast<std::uint64_t>(ended_chain));
  }
  if (chained) {
    cv_.notify_all();
    space_.chained_grants.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kChainGrant, r, self_, chain_arg);
    return false;
  }
  telemetry::FlightRecorder::record_at(release_ns,
                                       telemetry::FlightEvent::kRelease, r,
                                       self_);
  if (yielded_with_waiters) {
    space_.lease_yields.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kLeaseYield, r, self_,
        ended_chain);
  }
  // The release runs here on the releasing thread when the strand was
  // idle: the token leaves with no pool wake-up.
  if (claimed) strand_.drain();
  return true;
}

bool NodeRuntime::holding() {
  std::lock_guard<std::mutex> guard(mutex_);
  return held_;
}

int NodeRuntime::local_waiters() {
  std::lock_guard<std::mutex> guard(mutex_);
  return waiting_;
}

void NodeRuntime::revoke() {
  bool was_held = false;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    was_held = held_;
    if (was_held) ++revoked_holds_;
    held_ = false;
    granted_ = false;
    requested_ = false;
    chain_len_ = 0;
    grant_via_chain_ = false;
  }
  // The node died inside its CS: the witness retires with it (a repair
  // re-mints the token among the survivors).
  if (was_held) resource_.occupancy.fetch_sub(1);
  cv_.notify_all();
}

void NodeRuntime::wake() {
  // Lock/unlock pairs with each waiter's predicate check so the wake
  // cannot slip between its check and its wait.
  { std::lock_guard<std::mutex> guard(mutex_); }
  cv_.notify_all();
}

// --- Worlds -----------------------------------------------------------------

NodeId initial_holder(const proto::Algorithm& algorithm, NodeId home) {
  return algorithm.name == "Singhal" ? 1 : home;
}

std::vector<std::unique_ptr<proto::MutexNode>> initial_world(
    const proto::Algorithm& algorithm, int n, NodeId home,
    const topology::Tree* tree, std::uint64_t seed) {
  proto::ClusterSpec spec;
  spec.n = n;
  spec.initial_token_holder = initial_holder(algorithm, home);
  spec.tree = tree;
  spec.seed = seed;
  auto nodes = algorithm.factory(spec);
  DMX_CHECK(nodes.size() == static_cast<std::size_t>(n) + 1);
  return nodes;
}

std::vector<std::unique_ptr<proto::MutexNode>> repaired_world(
    const proto::Algorithm& algorithm, const fault::Membership& membership,
    NodeId winner, Epoch epoch, std::uint64_t seed) {
  proto::ClusterSpec spec;
  spec.n = membership.size();
  spec.initial_token_holder = membership.rank_of(winner);
  spec.seed = seed;
  spec.epoch = epoch;
  // The factory reads the tree only while it builds the instances.
  std::optional<topology::Tree> tree;
  if (algorithm.needs_tree) {
    tree.emplace(topology::Tree::star(spec.n, spec.initial_token_holder));
    spec.tree = &*tree;
  }
  auto nodes = algorithm.factory(spec);
  DMX_CHECK(nodes.size() == static_cast<std::size_t>(spec.n) + 1);
  return nodes;
}

}  // namespace dmx::service
