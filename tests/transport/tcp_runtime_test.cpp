// The shared node runtime on the TCP substrate, in one process: two
// DistributedLockSpace nodes joined by one loopback connection, no fork.
// Covers lease chaining between co-located clients and the strict unlock
// check. The chaining suite name is listed in the tsan-fast preset's name
// filter.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "transport/distributed_lock_space.hpp"

namespace dmx::transport {
namespace {

using namespace std::chrono_literals;

DistributedLockSpaceConfig make_config(NodeId self, int n) {
  DistributedLockSpaceConfig config;
  config.self = self;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.resources = {"res"};
  config.workers = 1;
  return config;
}

TEST(DistributedLockSpaceChaining, CoLocatedClientsChainOverTcp) {
  std::unique_ptr<DistributedLockSpace> nodes[2];
  for (NodeId self = 1; self <= 2; ++self) {
    nodes[self - 1] =
        std::make_unique<DistributedLockSpace>(make_config(self, 2));
  }
  const std::uint16_t port = nodes[0]->listen();
  nodes[1]->listen();
  nodes[1]->connect(1, port);
  for (auto& node : nodes) node->start();
  for (auto& node : nodes) ASSERT_TRUE(node->wait_connected(5000ms));
  const ResourceId r = nodes[0]->lookup("res");

  // Two clients on node 1 and one on node 2. Node 1's clients sleep inside
  // the critical section, so the other one is parked on the same node when
  // the holder unlocks: the lease hands the CS over without a frame.
  constexpr int kIterations = 200;
  long long counter = 0;  // protected only by the distributed lock
  std::vector<std::thread> clients;
  for (const NodeId v : {1, 1, 2}) {
    clients.emplace_back([&nodes, &counter, r, v] {
      DistributedLockSpace& space = *nodes[v - 1];
      for (int i = 0; i < kIterations; ++i) {
        space.lock(r);
        const long long read = counter;
        if (v == 1) std::this_thread::sleep_for(20us);
        counter = read + 1;
        space.unlock(r);
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(counter, 3 * kIterations);
  EXPECT_GT(nodes[0]->chained_grants(), 0u);
  EXPECT_EQ(nodes[0]->entries(r),
            static_cast<std::uint64_t>(2 * kIterations));
  EXPECT_EQ(nodes[1]->entries(r), static_cast<std::uint64_t>(kIterations));
  for (auto& node : nodes) {
    EXPECT_FALSE(node->first_error().has_value()) << *node->first_error();
  }
  for (auto& node : nodes) node->shutdown();
}

TEST(DistributedLockSpaceGhostUnlock, UnlockWithoutHoldFailsItsCheck) {
  // No crash() exists on this substrate to revoke a hold, so an unlock
  // without one is always a caller bug.
  DistributedLockSpace space(make_config(1, 1));
  space.listen();
  space.start();
  const ResourceId r = space.lookup("res");
  EXPECT_THROW(space.unlock(r), std::logic_error);
  // The rejected unlock left the gate and the witness untouched.
  space.lock(r);
  space.unlock(r);
  EXPECT_THROW(space.unlock(r), std::logic_error);
  EXPECT_EQ(space.entries(r), 1u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
  space.shutdown();
}

}  // namespace
}  // namespace dmx::transport
