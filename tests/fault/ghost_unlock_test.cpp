// The ghost-unlock rule of the shared node runtime on the threaded
// substrate: an unlock without a hold is a no-op only when crash() took
// that very hold away; any other unlock without a hold still fails its
// check, crash or no crash. Suite name starts with "ThreadedLockSpace" so
// the tsan-fast preset's name filter picks it up.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "baselines/registry.hpp"
#include "service/threaded_lock_space.hpp"

namespace dmx::service {
namespace {

using namespace std::chrono_literals;

ThreadedLockSpaceConfig ghost_config() {
  ThreadedLockSpaceConfig config;
  config.n = 4;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.resources = {"res/0"};
  config.workers = 2;
  return config;
}

TEST(ThreadedLockSpaceGhostUnlock, HolderOnCrashedNodeUnlocksAsNoOp) {
  ThreadedLockSpace space(ghost_config());
  const ResourceId r = space.lookup("res/0");
  const NodeId victim = space.home_node(r);
  const NodeId other = victim == 1 ? 2 : 1;

  space.lock(r, victim);
  space.crash(victim);  // revokes the hold under its holder
  EXPECT_NO_THROW(space.unlock(r, victim));
  // Only the revoked hold is forgiven, and only once.
  EXPECT_THROW(space.unlock(r, victim), std::logic_error);
  // The survivors repaired around the dead holder.
  EXPECT_EQ(space.try_lock_for(r, other, 5000ms), LockError::kOk);
  space.unlock(r, other);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceGhostUnlock, UnrevokedUnlockFailsAfterCrashElsewhere) {
  ThreadedLockSpace space(ghost_config());
  const ResourceId r = space.lookup("res/0");
  const NodeId victim = space.home_node(r);
  const NodeId bystander = victim == 1 ? 2 : 1;

  space.crash(victim);
  // The bystander never held the lock and crash() revoked nothing of it:
  // its unlock is a bug, not a ghost.
  EXPECT_THROW(space.unlock(r, bystander), std::logic_error);
  EXPECT_EQ(space.try_lock_for(r, bystander, 5000ms), LockError::kOk);
  space.unlock(r, bystander);
  EXPECT_THROW(space.unlock(r, bystander), std::logic_error);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

}  // namespace
}  // namespace dmx::service
