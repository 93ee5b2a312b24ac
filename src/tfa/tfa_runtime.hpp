// Per-node TFA protocol engine — requester side (open / forward / commit)
// and owner side (the handlers behind every protocol message), plus the
// user-facing `Txn` handle and the retry loop.
//
// Requester side implements Alg. 2 (Open_Object): resolve the owner, send
// the request with myCL and ETS, and interpret the response — granted,
// wrong-owner (re-resolve), scheduler-abort, abort-with-stall (TFA+Backoff)
// or enqueued (RTS: block up to the backoff waiting for the object to be
// pushed). Every granted object runs TFA's transactional-forwarding rule:
// if the responder's clock is ahead of the transaction's start, the whole
// access-set is early-validated and the start clock forwarded.
//
// Owner side implements Alg. 3 (Retrieve_Request: immediate grant when the
// slot is free, scheduler decision when it is being validated) and the
// commit protocol whose validation window *creates* those conflicts: lock
// write set -> validate read set -> register ownership at the home
// directory -> transfer/install the new copies -> serve parked requesters
// with the fresh object (Alg. 4).
//
// Owner-side state (the node's store, directory shard, scheduler, contention
// tracker, grant table and hold estimate) is guarded by the node's one owner
// lock. Every handler and every local owner-side step of the requester path
// holds it from its first read to its last state change, and never across an
// RPC wait (docs/CONCURRENCY.md).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "core/contention.hpp"
#include "core/scheduler.hpp"
#include "dsm/coherence.hpp"
#include "dsm/directory.hpp"
#include "dsm/object_store.hpp"
#include "net/comm.hpp"
#include "runtime/metrics.hpp"
#include "tfa/abort.hpp"
#include "util/mutex.hpp"
#include "tfa/node_clock.hpp"
#include "tfa/stats_table.hpp"
#include "tfa/transaction.hpp"

namespace hyflow::tfa {

class TfaRuntime;

// User-facing transaction handle: a thin view over one level of the
// transaction tree. Workloads receive a Txn& and use read/write/nested.
class Txn {
 public:
  Txn(TfaRuntime& rt, Transaction& level) : rt_(rt), level_(level) {}

  template <typename T>
  const T& read(ObjectId oid) {
    return object_cast<T>(open(oid, net::AccessMode::kRead).effective());
  }

  template <typename T>
  T& write(ObjectId oid) {
    return object_cast<T>(open(oid, net::AccessMode::kWrite).mutable_copy());
  }

  // Runs `body` as a closed-nested transaction. The child retries alone on
  // its own validation failures (bounded); parent-level aborts propagate.
  //
  // `body` MUST be idempotent across retries: reset any captured
  // accumulator at the top of the body (or build locally and publish as the
  // last statement), because an aborted child attempt's partial writes to
  // captured locals are NOT rolled back — only transactional object state is.
  void nested(const std::function<void(Txn&)>& body);

  // Workload-requested restart of the whole transaction.
  [[noreturn]] void retry() { throw AbortException{AbortCause::kUserRetry, 0}; }

  TxnId id() const { return level_.id(); }
  int depth() const { return level_.depth(); }
  TfaRuntime& runtime() { return rt_; }

 private:
  AccessEntry& open(ObjectId oid, net::AccessMode mode);

  TfaRuntime& rt_;
  Transaction& level_;
};

struct TfaConfig {
  int max_child_retries = 16;   // child-local retries before parent abort
  SimDuration default_expected_duration = sim_ms(2);
  // Seed estimate for how long a commit holds its locks (refined online by
  // an EWMA of observed hold durations); feeds the scheduler's
  // validator-remaining input.
  SimDuration default_validation_hold = sim_ms(4);
  // An Alg. 4 grant the requester has not acknowledged within this window
  // is presumed lost: the owner forgets it and re-serves the queue.
  SimDuration grant_ack_timeout = sim_ms(12);
};

// Outcome of one root-transaction execution (including internal retries).
struct RunResult {
  bool committed = false;
  std::uint32_t attempts = 0;
  SimDuration latency = 0;  // first attempt start -> commit
};

class TfaRuntime {
 public:
  TfaRuntime(const TfaConfig& cfg, net::Comm& comm, Mutex& owner_mu, dsm::ObjectStore& store,
             dsm::DirectoryShard& directory, dsm::OwnerResolver& resolver,
             core::Scheduler& scheduler, core::ContentionTracker& contention,
             StatsTable& stats, NodeClock& clock, runtime::NodeMetrics& metrics);

  // ---- requester side ----

  // Executes `body` as a root transaction, retrying on aborts until commit
  // or until `keep_going` returns false. Read-only roots validate at
  // commit; write roots run the full lock/validate/register protocol.
  RunResult run(std::uint32_t profile, const std::function<void(Txn&)>& body,
                const std::function<bool()>& keep_going = [] { return true; });

  // Alg. 2: open an object for `leaf`; throws AbortException.
  AccessEntry& open_object(Transaction& leaf, ObjectId oid, net::AccessMode mode);

  // Commit protocol for the root; throws AbortException on failure.
  void commit_root(Transaction& root);

  // ---- owner side (invoked by the node's message handler) ----
  // One owner step: takes the owner lock for the whole handler.
  void handle_request(const net::Message& msg) EXCLUDES(owner_mu_);

  // A granted object arrived for an abandoned call: tell the sender we are
  // no longer interested so it forwards the object to the next requester.
  void handle_orphan_reply(const net::Message& msg);

  // Grant-loss recovery (Alg. 4 under an unreliable network): expires
  // unacknowledged grants and re-serves the object's queue. Driven
  // periodically by the cluster's maintenance thread.
  void sweep_grants(SimTime now) EXCLUDES(owner_mu_);

  runtime::NodeMetrics& metrics() { return metrics_; }
  const TfaConfig& config() const { return cfg_; }

 private:
  friend class Txn;

  // Requester-side helpers.
  struct ValidateItem {
    ObjectId oid;
    const AccessEntry* entry;
    int depth;
    NodeId target;
    bool done = false;
    std::optional<net::RequestCall> call;
  };
  // Find_owner: this node, if its own store holds the object, else the
  // resolver's answer.
  std::optional<NodeId> find_owner(ObjectId oid) EXCLUDES(owner_mu_);
  void forward_if_needed(Transaction& root, std::uint64_t observed_clock);
  void validate_chain(Transaction& root, bool reads_only);
  void validate_child(Transaction& child);
  void run_validation(std::vector<ValidateItem>& items);
  AccessEntry& admit_granted(Transaction& leaf, ObjectId oid, net::AccessMode mode,
                             const net::Message& reply);
  [[noreturn]] void abort_txn(AbortCause cause, int locus, ObjectId oid,
                              SimDuration stall = 0);

  // Commit-phase helpers.
  struct WriteTarget {
    ObjectId oid;
    AccessEntry* entry;
    NodeId owner;
  };
  std::vector<WriteTarget> resolve_write_set(Transaction& root);
  void lock_write_set(Transaction& root, std::vector<WriteTarget>& writes);
  void release_locks(const TxnId txid, const std::vector<WriteTarget>& writes,
                     std::size_t count);
  // Releases a commit lock held in this node's own store, then serves the
  // object's queue: one owner step.
  void release_local_lock(ObjectId oid, TxnId txid) EXCLUDES(owner_mu_);
  void publish_write_set(Transaction& root, std::vector<WriteTarget>& writes,
                         std::uint64_t commit_clock);

  // Owner-side handlers.
  void on_find_owner(const net::Message& msg) REQUIRES(owner_mu_);
  void on_register_owner(const net::Message& msg) REQUIRES(owner_mu_);
  void on_object_request(const net::Message& msg) REQUIRES(owner_mu_);
  void on_lock(const net::Message& msg) REQUIRES(owner_mu_);
  void on_validate(const net::Message& msg) REQUIRES(owner_mu_);
  void on_commit(const net::Message& msg) REQUIRES(owner_mu_);
  void on_abort_unlock(const net::Message& msg) REQUIRES(owner_mu_);
  void on_not_interested(const net::Message& msg) REQUIRES(owner_mu_);
  void on_grant_ack(const net::Message& msg) REQUIRES(owner_mu_);

  // Push the current copy of `oid` to the scheduler's head group.
  void serve_waiters(ObjectId oid) REQUIRES(owner_mu_);
  void send_grant(const net::QueuedRequester& to, ObjectId oid, const ObjectSnapshot& obj,
                  Version version) REQUIRES(owner_mu_);

  // Releases a remotely-held commit lock reliably (a lost release would
  // wedge the object at the owner forever).
  void release_remote_lock(ObjectId oid, TxnId txid, NodeId owner);

  // Lock-hold statistics: how long commits keep objects locked at this
  // node; the owner-side estimate behind ConflictContext::validator_remaining.
  void record_hold(SimTime locked_at) REQUIRES(owner_mu_);
  SimDuration expected_hold() const REQUIRES(owner_mu_);
  SimDuration validator_remaining(const dsm::SlotView& slot, SimTime now) const
      REQUIRES(owner_mu_);

  TfaConfig cfg_;
  net::Comm& comm_;
  Mutex& owner_mu_;
  dsm::ObjectStore& store_ GUARDED_BY(owner_mu_);
  dsm::DirectoryShard& directory_ GUARDED_BY(owner_mu_);
  dsm::OwnerResolver& resolver_;
  core::Scheduler& scheduler_ GUARDED_BY(owner_mu_);
  core::ContentionTracker& contention_ GUARDED_BY(owner_mu_);
  StatsTable& stats_;
  NodeClock& clock_;
  runtime::NodeMetrics& metrics_;
  std::atomic<std::uint64_t> txn_seq_{1};

  Ewma hold_ewma_ GUARDED_BY(owner_mu_){0.2};

  // Outstanding Alg. 4 grants awaiting their GrantAck, keyed (oid, txid).
  struct PendingGrant {
    ObjectId oid;
    net::QueuedRequester req;
    SimTime deadline = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, PendingGrant> grants_
      GUARDED_BY(owner_mu_);
};

}  // namespace hyflow::tfa
