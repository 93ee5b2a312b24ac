// The transactional scheduler: RTS (§III, Algorithms 1-4), its baselines and
// the contention-manager challengers, as rows of one policy table.
//
// The TFA runtime consults it in one situation: a (root/parent) transaction
// requested an object that is being validated by another transaction's
// commit (§II: "Transactions that request an object being validated must
// abort" — unless the scheduler says otherwise). The answer is one of:
//
//   kAbort          — abort and retry immediately (TFA)
//   kAbortWithStall — abort, stall `backoff`, then retry (TFA+Backoff, Polka)
//   kEnqueue        — the open blocks for up to `backoff`: the requester is
//                     parked in the object's requester list, and the object
//                     is pushed to it on unlock/commit (RTS)
//
// One class serves every policy: it owns Alg. 1's scheduling_List (object ->
// RequesterList) under one mutex. The row named by `cfg.kind` supplies only
// an admission rule (abort, abort with a stall, or enqueue at a rank) and a
// pop rule (the head group, or bi-interval's readers first); duplicate
// removal, the enqueue backoff, `bk`, rank-ordered parking, the Alg. 4
// hand-off and the bookkeeping are shared. docs/SCHEDULERS.md has the table.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/requester_list.hpp"
#include "dsm/object_id.hpp"
#include "net/payloads.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyflow::core {

enum class ConflictAction { kAbort, kAbortWithStall, kEnqueue };

struct ConflictDecision {
  ConflictAction action = ConflictAction::kAbort;
  SimDuration backoff = 0;
};

struct ConflictContext {
  ObjectId oid;
  NodeId requester_node = kInvalidNode;
  std::uint64_t request_msg_id = 0;  // routing id for the parked reply
  net::ObjectRequest request;        // txid, mode, myCL, ETS
  std::uint32_t local_cl = 0;        // owner-side window CL of oid
  // Expected time until the transaction currently validating this object
  // releases it — the paper's |t7 - t4| (Fig. 3), estimated at the owner
  // from its history of lock-hold durations.
  SimDuration validator_remaining = 0;
  SimTime now = 0;
};

struct SchedulerConfig {
  std::string kind = "rts";                 // see scheduler_names()
  // RTS: CL threshold (paper §III-B); bi-interval: its queue cap.
  std::uint32_t cl_threshold = 3;
  SimDuration min_backoff = sim_us(100);    // clamp for unseeded stats tables
  SimDuration max_backoff = sim_ms(100);
  SimDuration contention_window = sim_ms(20);
  // Extra wait granted on top of the computed queue position: covers the
  // hand-off hops (commit ack -> queue transfer -> object push).
  SimDuration handoff_slack = sim_ms(6);
  // Queue cap for the park-everything challengers (greedy, karma,
  // steal-on-abort): a conflicting requester that would make the per-object
  // queue longer than this aborts instead of parking.
  std::uint32_t max_queue = 16;
  // Karma/Polka: seed of the randomized exponential backoff drawn on loss.
  std::uint64_t karma_seed = 0x5eed;
};

struct SchedulerPolicy;  // a row of the policy table (scheduler.cpp)

class Scheduler {
 public:
  // Selects the row named by `cfg.kind` (canonical name or alias). An
  // unknown kind is a fatal configuration error: the process aborts with a
  // message listing every valid name.
  explicit Scheduler(const SchedulerConfig& cfg);

  const char* name() const;

  // Decide the fate of a conflicting requester; on kEnqueue the scheduler
  // has already parked it.
  ConflictDecision on_conflict(const ConflictContext& ctx);

  // Object became available at this node (commit installed a new version,
  // an abort released the lock, or a served requester declined). Returns
  // the requesters to serve *now*, chosen by the row's pop rule.
  std::vector<net::QueuedRequester> on_object_available(ObjectId oid);

  // Ownership is moving away: hand the whole queue to the new owner.
  std::vector<net::QueuedRequester> extract_queue(ObjectId oid);

  // This node became owner and inherited the previous owner's queue; it is
  // merged by rank behind anything parked here at an equal rank.
  void absorb_queue(ObjectId oid, std::vector<net::QueuedRequester> queue);

  // A served requester answered "not interested" (its backoff expired).
  void remove_requester(ObjectId oid, TxnId txid);

  std::size_t queue_depth(ObjectId oid) const;
  std::size_t total_queued() const;

  // Test hook: Karma's consecutive losses charged to (node, ets_start).
  std::uint32_t loss_streak(NodeId node, SimTime ets_start) const;

  // Karma's memory across conflicts: the loss streak of each root
  // transaction, keyed by (requester node, ETS.s) — every retry keeps its
  // first-attempt start — and the RNG of Polka's randomized stall.
  struct LossBook {
    std::map<std::pair<NodeId, SimTime>, std::uint32_t> streaks;
    Xoshiro256 rng;
  };

 private:
  const SchedulerPolicy& policy_;
  const SchedulerConfig cfg_;
  // RequesterList carries no annotations: its instances live inside `lists_`
  // and are only ever reached through `mu_` (see docs/CONCURRENCY.md).
  mutable Mutex mu_{LockRank::kSchedulerQueue, "Scheduler::mu"};
  std::unordered_map<ObjectId, RequesterList> lists_ GUARDED_BY(mu_);
  LossBook losses_ GUARDED_BY(mu_);
};

// Constructs the scheduler for `cfg.kind`; dies on an unknown kind.
std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& cfg);

// Canonical names of every registered policy, in bench-sweep order.
std::vector<std::string> scheduler_names();

// Maps a kind or alias ("backoff", "bi") to its canonical name; returns an
// empty string for unknown kinds.
std::string canonical_scheduler_name(const std::string& kind);

}  // namespace hyflow::core
