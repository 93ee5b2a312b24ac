// A node's owner side: every piece of state that the paper's Alg. 3
// (Retrieve_Request) and Alg. 4 (the queued hand-off) read or change, and
// every step that reads or changes it.
//
// OwnerCore owns the node's object store, directory shard, scheduler,
// contention tracker, owner hints, outstanding Alg. 4 grants, resend table
// and lock-hold estimate, all behind one owner mutex. Each public method is
// one owner step: it holds the mutex from its first read to its last state
// change and sends its requests, replies, grants and posts through net::Comm
// under that hold. No step waits for a reply, so a step never blocks on
// another node.
//
// The resend table holds every request that no transaction waits for: a
// failed commit's lock releases and the Alg. 4 CommitRequests. Each only
// repairs state at another node, so the sweep resends it until its answer
// arrives.
//
// The steps are the nine request handlers (handle), the answer to a request
// in the resend table or an orphan reply (take_reply), the sweep (grant
// recovery and resends), the requester path's local steps (answer, the reply
// of handle() to a lookup, registration, lock or validation, taken in place
// of a request to this node; a local release runs the same code as the
// handler of AbortUnlock; a commit installs its new copies here) and the
// placement and audit calls of the cluster and the reports.
// docs/CONCURRENCY.md states the rule.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/contention.hpp"
#include "core/scheduler.hpp"
#include "dsm/directory.hpp"
#include "dsm/object_store.hpp"
#include "net/comm.hpp"
#include "runtime/metrics.hpp"
#include "util/mutex.hpp"
#include "util/stats.hpp"

namespace hyflow::tfa {

struct TfaConfig;

class OwnerCore {
 public:
  OwnerCore(const TfaConfig& cfg, const core::SchedulerConfig& scheduler, net::Comm& comm,
            runtime::NodeMetrics& metrics);

  OwnerCore(const OwnerCore&) = delete;
  OwnerCore& operator=(const OwnerCore&) = delete;

  // ---- message steps ----

  // Runs the handler of one request: FindOwner, RegisterOwner, Object (Alg.
  // 3), Lock, Validate, Commit (the Alg. 4 hand-off), AbortUnlock,
  // NotInterested or GrantAck.
  void handle(const net::Message& msg) EXCLUDES(mu_);

  // A reply no pending call took. The answer to a request in the resend
  // table drops its record and, for a CommitResponse, absorbs the requester
  // queue the old owner returns and serves it. False if no record matches:
  // an orphan, or a duplicated or replayed answer. An orphan granted object
  // is declined to its sender by a NotInterested, so that it serves its next
  // requester; any other changes nothing.
  bool take_reply(const net::Message& reply) EXCLUDES(mu_);

  // Grant-loss recovery: forgets every Alg. 4 grant whose GrantAck is overdue
  // at `now` and serves the object's queue again. Resends every overdue
  // request in the resend table under its msg_id, on retry_policy()'s
  // schedule, capped at max_timeout, for as long as it stays unanswered.
  void sweep(SimTime now) EXCLUDES(mu_);

  // ---- the requester path's local steps ----

  // The owner's answer to a request it answers at once: a FindOwner,
  // RegisterOwner, Lock or Validate request. handle() replies with it, and
  // the requester path takes it in place of a request to this node.
  net::Payload answer(const net::Payload& request) EXCLUDES(mu_);
  // Find_owner without the directory: this node if its store holds `oid`,
  // else the owner hint, if any.
  std::optional<NodeId> known_owner(ObjectId oid) EXCLUDES(mu_);
  // A reply named `owner` as the owner of `oid`.
  void note_owner(ObjectId oid, NodeId owner) EXCLUDES(mu_);
  // The hint for `oid` proved stale.
  void forget_owner(ObjectId oid) EXCLUDES(mu_);

  // Releases `txid`'s commit lock on `oid` at `owner`: in place, serving the
  // object's queue, if `owner` is this node, else by an AbortUnlock recorded
  // in the resend table.
  void release(ObjectId oid, TxnId txid, NodeId owner) EXCLUDES(mu_);
  // A commit by the owner itself: publishes the new copy in place, which
  // releases the lock, and serves the queue.
  void commit_in_place(ObjectId oid, TxnId txid, ObjectSnapshot object, Version version)
      EXCLUDES(mu_);
  // Initial placement: this node now owns `object`.
  void install(ObjectSnapshot object, Version version) EXCLUDES(mu_);
  // A commit that moves `object` here from `old_owner` (Alg. 4): installs
  // the new copy and sends the old owner its CommitRequest, recorded in the
  // resend table until the reply brings the old owner's requester queue
  // (take_reply).
  void commit_handoff(NodeId old_owner, TxnId txid, ObjectSnapshot object, Version version)
      EXCLUDES(mu_);

  // ---- placement and audits ----

  // Initial placement of `oid`'s directory entry at its home node.
  void publish(ObjectId oid, NodeId owner) EXCLUDES(mu_);
  std::optional<NodeId> directory_lookup(ObjectId oid) EXCLUDES(mu_);
  // This node's committed copy of `oid`, or nullptr if it does not own it.
  ObjectSnapshot owned_copy(ObjectId oid) EXCLUDES(mu_);
  std::size_t owned_objects() EXCLUDES(mu_);
  std::size_t queued_requesters() EXCLUDES(mu_);
  // Owned slots still locked by a commit.
  std::size_t locked_slots() EXCLUDES(mu_);
  // Requests in the resend table: sent, and not answered yet.
  std::size_t unanswered_requests() EXCLUDES(mu_);

  // ---- unlocked views, for tests and reads after the cluster quiesced ----
  dsm::ObjectStore& store() NO_THREAD_SAFETY_ANALYSIS { return store_; }
  dsm::DirectoryShard& directory() NO_THREAD_SAFETY_ANALYSIS { return directory_; }
  core::Scheduler& scheduler() NO_THREAD_SAFETY_ANALYSIS { return scheduler_; }

  // Test hook: lets a test hold the owner mutex to stand in for a step.
  Mutex& mutex() RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  // answer()'s step under the held mutex; nullopt for any other request.
  std::optional<net::Payload> answer_held(const net::Payload& request) REQUIRES(mu_);
  void on_object_request(const net::Message& msg) REQUIRES(mu_);
  void on_commit(const net::Message& msg) REQUIRES(mu_);
  void on_abort_unlock(const net::Message& msg) REQUIRES(mu_);
  void on_not_interested(const net::Message& msg) REQUIRES(mu_);
  void on_grant_ack(const net::Message& msg) REQUIRES(mu_);

  // The release step shared by on_abort_unlock and release().
  void release_and_serve(ObjectId oid, TxnId txid) REQUIRES(mu_);
  // Sends `req` to `to` and records it in the resend table.
  void send_recorded(NodeId to, net::Payload req) REQUIRES(mu_);
  // Pushes the current copy of `oid` to the scheduler's head group.
  void serve_waiters(ObjectId oid) REQUIRES(mu_);
  void send_grant(const net::QueuedRequester& to, ObjectId oid, const ObjectSnapshot& obj,
                  Version version) REQUIRES(mu_);

  // Lock-hold statistics: how long commits keep objects locked at this node;
  // the estimate behind ConflictContext::validator_remaining.
  void record_hold(SimTime locked_at) REQUIRES(mu_);
  SimDuration validator_remaining(const dsm::SlotView& slot, SimTime now) const REQUIRES(mu_);

  const SimDuration default_validation_hold_;
  const SimDuration grant_ack_timeout_;
  net::Comm& comm_;
  runtime::NodeMetrics& metrics_;

  Mutex mu_{LockRank::kOwner, "OwnerCore::mu"};
  dsm::ObjectStore store_ GUARDED_BY(mu_);
  dsm::DirectoryShard directory_ GUARDED_BY(mu_);
  core::Scheduler scheduler_ GUARDED_BY(mu_);
  core::ContentionTracker contention_ GUARDED_BY(mu_);
  // Last known owner of objects this node does not own: filled by fetch
  // replies and directory lookups, and by hand-offs this node made.
  std::unordered_map<ObjectId, NodeId> hints_ GUARDED_BY(mu_);
  Ewma hold_ewma_ GUARDED_BY(mu_){0.2};

  // Outstanding Alg. 4 grants awaiting their GrantAck, keyed (oid, txid).
  struct PendingGrant {
    ObjectId oid;
    net::QueuedRequester req;
    SimTime deadline = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, PendingGrant> grants_ GUARDED_BY(mu_);

  // The resend table: requests awaiting their answer, keyed by msg_id.
  struct Unanswered {
    NodeId to = kInvalidNode;
    net::Payload req;
    std::uint32_t attempt = 0;  // resends so far
    SimTime deadline = 0;
  };
  std::map<std::uint64_t, Unanswered> unanswered_ GUARDED_BY(mu_);
};

}  // namespace hyflow::tfa
