// Tests for the blocking lock API on a one-resource ThreadedLockSpace:
// real threads, real blocking locks, every algorithm. A shared
// unprotected counter is the canonical mutual-exclusion witness: lost
// updates would make the final count fall short.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "service/directory.hpp"
#include "service/threaded_lock_space.hpp"
#include "topology/tree.hpp"

namespace dmx::service {
namespace {

using namespace std::chrono_literals;

constexpr ResourceId kLock = 0;

ThreadedLockSpaceConfig make_config(const std::string& algorithm, int n,
                                    unsigned jitter_us = 0) {
  ThreadedLockSpaceConfig config;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name(algorithm);
  config.resources = {"lock"};
  config.tree = topology::Tree::random_tree(n, 17);
  config.jitter_us = jitter_us;
  config.workers = 2;
  return config;
}

/// The node a space built from `config` places the token of its only
/// resource at (its Directory home).
NodeId home_of(const ThreadedLockSpaceConfig& config) {
  Directory directory(config.n, config.directory_vnodes, config.seed);
  return directory.home_node(directory.open(config.resources.front()));
}

class RuntimeAllAlgorithms
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeAllAlgorithms, SharedCounterHasNoLostUpdates) {
  const int n = 5;
  const int increments_per_node = 40;
  ThreadedLockSpace space(make_config(GetParam(), n));

  long long counter = 0;  // deliberately unsynchronized
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 1; v <= n; ++v) {
    threads.emplace_back([&space, &counter, v] {
      for (int i = 0; i < increments_per_node; ++i) {
        ScopedLock guard(space, kLock, v);
        const long long read = counter;
        std::this_thread::yield();  // widen the race window
        counter = read + 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter, static_cast<long long>(n) * increments_per_node);
  EXPECT_EQ(space.total_entries(),
            static_cast<std::uint64_t>(n) * increments_per_node);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST_P(RuntimeAllAlgorithms, JitteryDeliverySurvives) {
  const int n = 4;
  ThreadedLockSpace space(make_config(GetParam(), n, /*jitter_us=*/200));

  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= n; ++v) {
    threads.emplace_back([&space, v] {
      for (int i = 0; i < 10; ++i) {
        space.lock(kLock, v);
        space.unlock(kLock, v);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(space.total_entries(), 40u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuntimeAllAlgorithms,
    ::testing::Values("Neilsen", "Raymond", "Central", "Suzuki-Kasami",
                      "Singhal", "Lamport", "Ricart-Agrawala",
                      "Carvalho-Roucairol", "Maekawa"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Runtime, UncontendedLockIsReentrantFree) {
  ThreadedLockSpace space(make_config("Neilsen", 3));
  for (int i = 0; i < 100; ++i) {
    space.lock(kLock, 1);
    space.unlock(kLock, 1);
  }
  EXPECT_EQ(space.total_entries(), 100u);
}

TEST(Runtime, TryLockForSucceedsQuickly) {
  ThreadedLockSpace space(make_config("Neilsen", 3));
  EXPECT_EQ(space.try_lock_for(kLock, 2, 2000ms), LockError::kOk);
  space.unlock(kLock, 2);
}

TEST(Runtime, TryLockForTimesOutWhileBlocked) {
  ThreadedLockSpace space(make_config("Neilsen", 3));
  space.lock(kLock, 1);
  EXPECT_EQ(space.try_lock_for(kLock, 2, 50ms), LockError::kTimeout);
  space.unlock(kLock, 1);
  // The timed-out request stays posted; a later lock() is still served.
  space.lock(kLock, 2);
  space.unlock(kLock, 2);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(Runtime, TryLockForTimeoutThenLockCompletesSameRequest) {
  // Follow-up semantics of a timed-out try_lock_for: the protocol request
  // stays outstanding (requests cannot be cancelled), and its grant,
  // landing while no thread waits, is released straight back. A later
  // lock() then completes with exactly one entry, no double-posted
  // request and no lost wakeup.
  ThreadedLockSpace space(make_config("Neilsen", 3));
  space.lock(kLock, 1);
  EXPECT_EQ(space.try_lock_for(kLock, 2, 50ms), LockError::kTimeout);
  // Release while node 2 is NOT blocked in a wait.
  space.unlock(kLock, 1);
  std::this_thread::sleep_for(200ms);
  space.lock(kLock, 2);
  EXPECT_EQ(space.total_entries(), 2u);  // holder's + exactly one for 2
  space.unlock(kLock, 2);
  // The outstanding-request bookkeeping is fully reset: a fresh cycle
  // issues a new request and completes.
  space.lock(kLock, 2);
  space.unlock(kLock, 2);
  EXPECT_EQ(space.total_entries(), 3u);
  // A double-posted request would trip the protocol's one-outstanding-
  // request precondition on a strand and surface here.
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(Runtime, ManyNodesLineTopology) {
  ThreadedLockSpaceConfig config = make_config("Neilsen", 12);
  config.tree = topology::Tree::line(12);
  ThreadedLockSpace space(std::move(config));
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= 12; ++v) {
    threads.emplace_back([&space, v] {
      for (int i = 0; i < 5; ++i) {
        ScopedLock guard(space, kLock, v);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(space.total_entries(), 60u);
}

TEST(Runtime, MessageCountingMatchesProtocolCost) {
  // Star topology around the token's home: locking from the hub is free;
  // locking from a leaf costs exactly REQUEST + PRIVILEGE.
  ThreadedLockSpaceConfig config = make_config("Neilsen", 4);
  const NodeId hub = home_of(config);
  config.tree = topology::Tree::star(4, hub);
  ThreadedLockSpace space(std::move(config));
  ASSERT_EQ(space.home_node(kLock), hub);

  space.lock(kLock, hub);
  space.unlock(kLock, hub);
  EXPECT_EQ(space.messages_sent(), 0u);

  const NodeId leaf = hub == 1 ? 2 : 1;
  space.lock(kLock, leaf);
  space.unlock(kLock, leaf);
  EXPECT_EQ(space.messages_sent(), 2u);  // REQUEST(2,2) + PRIVILEGE
}

}  // namespace
}  // namespace dmx::service
