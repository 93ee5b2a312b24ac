// Runtime lock-rank (lock-ordering) validator.
//
// Clang's thread-safety analysis proves that guarded state is only touched
// with its capability held, but it cannot see *cross-mutex ordering*: thread
// A taking owner->cache while thread B takes cache->owner is invisible to it
// yet deadlocks at runtime. This validator closes that gap:
// every Mutex is constructed with a LockRank, a thread-local stack records
// the ranks a thread currently holds, and acquiring a lock whose rank is not
// strictly greater than every held rank aborts immediately, printing both
// acquisition sites. Deadlock ordering bugs thus fail loudly on the first
// occurrence instead of hanging once in a thousand runs.
//
// Rules (see docs/CONCURRENCY.md for the full hierarchy):
//   * ranks must strictly increase along any acquisition chain; acquiring
//     equal rank while one is held is also a violation (two instances of the
//     same class must never nest)
//   * kUnranked locks opt out entirely (utility locks in tests)
//   * successful try_lock() is recorded but exempt from the order check — a
//     non-blocking acquisition cannot deadlock
//
// Enabled when HYFLOW_LOCK_RANK_CHECKS is defined (CMake option
// HYFLOW_LOCK_RANK, ON by default; turn OFF for peak-throughput bench runs).
#pragma once

#include <source_location>

namespace hyflow {

// Global acquisition order, outermost (acquired first) to innermost. The
// owner lock comes first: a node's owner-side step holds it while it replies,
// grants and posts, which take the network's locks below it.
enum class LockRank : int {
  kUnranked = 0,       // opted out of ordering checks
  kOwner = 10,         // tfa::OwnerCore::mu_ — all owner-side state
  kStatsTable = 55,    // tfa::StatsTable::mu_
  kReplyCache = 70,    // net::ReplyCache::mu_
  kCallRegistry = 75,  // net::PendingCalls::mu_
  kCallState = 80,     // net::PendingCalls::CallState::mu
  kNetTimer = 85,      // net::Network::timer_mu_
  kMetrics = 95,       // runtime::NodeMetrics::latency_mu_ — leaf
  kLog = 100,          // log sink — leaf, may be taken under anything
};

namespace lock_rank {

#ifdef HYFLOW_LOCK_RANK_CHECKS

// Records an acquisition by the calling thread; aborts (after printing both
// acquisition sites) when `blocking` and some held lock has rank >= `rank`.
// kUnranked acquisitions are ignored.
void note_acquire(const void* lock, LockRank rank, const char* name,
                  const std::source_location& loc, bool blocking);

// Forgets the most recent acquisition of `lock` by the calling thread.
void note_release(const void* lock);

// Number of ranked locks the calling thread currently holds (test hook).
int held_count();

constexpr bool enabled() { return true; }

#else

inline void note_acquire(const void*, LockRank, const char*,
                         const std::source_location&, bool) {}
inline void note_release(const void*) {}
inline int held_count() { return 0; }
constexpr bool enabled() { return false; }

#endif  // HYFLOW_LOCK_RANK_CHECKS

}  // namespace lock_rank
}  // namespace hyflow
