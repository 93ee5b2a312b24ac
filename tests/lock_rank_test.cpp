// Tests for the runtime lock-rank deadlock validator (util/lock_rank.hpp):
// acquiring ranked locks against the documented hierarchy must abort with
// both acquisition sites; following the hierarchy must be silent.

#include <gtest/gtest.h>

#include "util/lock_rank.hpp"
#include "util/mutex.hpp"

namespace hyflow {
namespace {

#ifdef HYFLOW_LOCK_RANK_CHECKS

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  // The owner lock ranks before the stats lock (owner -> stats); taking the
  // owner lock *after* the stats lock inverts it and must die, naming both.
  auto invert = [] {
    Mutex stats(LockRank::kStatsTable, "test-stats");
    Mutex owner(LockRank::kOwner, "test-owner");
    MutexLock hold_stats(stats);
    MutexLock hold_owner(owner);  // rank 10 under rank 55: inversion
  };
  EXPECT_DEATH(invert(), "lock-rank violation.*test-owner.*test-stats");
}

TEST(LockRankDeathTest, EqualRankNestingAborts) {
  // Two instances of the same class must never nest (A->B in one thread,
  // B->A in another deadlocks while each order alone looks fine) — here two
  // nodes' owner locks.
  auto nest_same_rank = [] {
    Mutex a(LockRank::kOwner, "owner-a");
    Mutex b(LockRank::kOwner, "owner-b");
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  };
  EXPECT_DEATH(nest_same_rank(), "lock-rank violation.*owner-b.*owner-a");
}

TEST(LockRank, InOrderChainPasses) {
  Mutex owner(LockRank::kOwner, "test-owner");
  Mutex stats(LockRank::kStatsTable, "test-stats");
  Mutex cache(LockRank::kReplyCache, "test-cache");
  {
    MutexLock hold_owner(owner);
    MutexLock hold_stats(stats);
    MutexLock hold_cache(cache);
    EXPECT_EQ(lock_rank::held_count(), 3);
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, ReleaseRestoresFreedom) {
  // Sequential (non-nested) use in any order is legal: the inversion rule
  // only applies to locks held simultaneously.
  Mutex owner(LockRank::kOwner, "test-owner");
  Mutex stats(LockRank::kStatsTable, "test-stats");
  {
    MutexLock hold(stats);
  }
  {
    MutexLock hold(owner);  // lower rank, but nothing is held any more
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, TryLockIsExemptButRecorded) {
  Mutex stats(LockRank::kStatsTable, "test-stats");
  Mutex owner(LockRank::kOwner, "test-owner");
  MutexLock hold(stats);
  // A non-blocking acquisition cannot deadlock, so inverting via try_lock
  // is allowed...
  ASSERT_TRUE(owner.try_lock());
  EXPECT_EQ(lock_rank::held_count(), 2);
  owner.unlock();
  EXPECT_EQ(lock_rank::held_count(), 1);
}

TEST(LockRankDeathTest, BlockingAcquireAfterTryLockStillChecked) {
  // ...but the try-locked capability is recorded, so a later *blocking*
  // acquisition below it still trips the validator.
  auto blocked_under_trylock = [] {
    Mutex cache(LockRank::kReplyCache, "test-cache");
    Mutex stats(LockRank::kStatsTable, "test-stats");
    ASSERT_TRUE(cache.try_lock());
    MutexLock hold(stats);  // rank 55 under recorded rank 70
  };
  EXPECT_DEATH(blocked_under_trylock(), "lock-rank violation.*test-stats.*test-cache");
}

TEST(LockRank, UnrankedLocksOptOut) {
  Mutex ranked(LockRank::kStatsTable, "test-stats");
  Mutex unranked;  // kUnranked: utility lock, exempt from ordering
  MutexLock hold_ranked(ranked);
  {
    MutexLock hold_unranked(unranked);
    EXPECT_EQ(lock_rank::held_count(), 1);  // unranked never recorded
  }
}

#else  // !HYFLOW_LOCK_RANK_CHECKS

TEST(LockRank, DisabledAtBuildTime) {
  GTEST_SKIP() << "built with -DHYFLOW_LOCK_RANK=OFF; validator compiled out";
}

#endif

}  // namespace
}  // namespace hyflow
