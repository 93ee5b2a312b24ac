// Per-node TFA protocol engine, requester side: the user-facing `Txn`
// handle, the retry loop, open / forward / validate, and the commit protocol.
//
// Open implements Alg. 2 (Open_Object): resolve the owner, send the request
// with myCL and ETS, and interpret the response — granted, wrong-owner
// (re-resolve), scheduler-abort, abort-with-stall (TFA+Backoff) or enqueued
// (RTS: block up to the backoff waiting for the object to be pushed). Every
// granted object runs TFA's transactional-forwarding rule: if the
// responder's clock is ahead of the transaction's start, the whole
// access-set is early-validated and the start clock forwarded.
//
// The commit protocol's validation window *creates* the conflicts the
// scheduler decides: lock write set -> validate read set -> register
// ownership at the home directory -> install the new copies and send each
// old owner its hand-off. The commit returns there; the owner side absorbs
// each old owner's requester queue when its reply lands and serves it with
// the fresh object (Alg. 4).
//
// The directory lookup, locking, validation (forwarding, closed-nested
// child, commit) and registration are rounds; run_round is the one place a
// round is written, and each phase supplies only its request, its verdict
// and its clean-up.
//
// The owner side lives in tfa::OwnerCore. A round item whose target is this
// node takes OwnerCore::answer, the answer its request handler replies with,
// in place of a request to itself. A fetch, which may park, is always sent,
// and a hand-off never goes to this node.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "net/comm.hpp"
#include "runtime/metrics.hpp"
#include "tfa/abort.hpp"
#include "tfa/node_clock.hpp"
#include "tfa/owner_core.hpp"
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

  // Runs `body` as a closed-nested transaction. Its commit validates the
  // child's own reads, and the child retries alone when one of them went
  // stale (bounded); parent-level aborts propagate. A stale write surfaces
  // at the root's commit lock and aborts the root.
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
  TfaRuntime(const TfaConfig& cfg, net::Comm& comm, OwnerCore& owner, StatsTable& stats,
             NodeClock& clock, runtime::NodeMetrics& metrics);

  // Executes `body` as a root transaction, retrying on aborts until commit
  // or until `keep_going` returns false. Read-only roots validate at commit
  // the reads nothing has shown current since their last fetch; write roots
  // run the full lock/validate/register protocol.
  RunResult run(std::uint32_t profile, const std::function<void(Txn&)>& body,
                const std::function<bool()>& keep_going = [] { return true; });

  // Alg. 2: open an object for `leaf`; throws AbortException.
  AccessEntry& open_object(Transaction& leaf, ObjectId oid, net::AccessMode mode);

  // Commit protocol for the root; throws AbortException on failure.
  void commit_root(Transaction& root);

  runtime::NodeMetrics& metrics() { return metrics_; }
  const TfaConfig& config() const { return cfg_; }

 private:
  friend class Txn;

  // One object of a round: its entry (none for a lookup), the node that
  // answers for it (owner or home node), the depth an abort is charged to,
  // whether its answer passed the verdict, and its call in flight.
  struct RoundItem {
    ObjectId oid;
    AccessEntry* entry;
    NodeId target;
    int depth = 0;
    bool done = false;
    std::optional<net::RequestCall> call{};
  };
  // What a phase supplies to run_round. `verdict` reads an answer and
  // returns if it succeeds; any other answer, not-owner included, cleans up
  // and throws, as `fail` does for a silent target.
  struct Round {
    net::RetryPolicy policy;
    std::function<net::Payload(const RoundItem&)> request;
    std::function<void(const RoundItem&, const net::Payload&)> verdict;
    std::function<void(AbortCause, const RoundItem&)> fail;
  };
  // Which entries of the chain a validation round asks about. A write entry
  // is checked by the root's commit lock, or by a forwarding round while
  // the tree holds it.
  enum class Scope {
    kAll,       // forwarding
    kReads,     // a closed-nested child's commit, or a writer's once its writes are locked
    kUnproven,  // a read-only commit: entries not shown current at the last fetch
  };

  // Find_owner: this node if its own store holds the object, else the owner
  // hint, else the home node's directory. A silent home node aborts the
  // transaction as the wait's cause; nullopt if the directory does not know
  // the object.
  std::optional<NodeId> find_owner(ObjectId oid);
  void forward_if_needed(Transaction& root, std::uint64_t observed_clock);
  // Early-validates the entries in `scope` fetched at `top` or below it: the
  // whole chain on forwarding, the root at commit, or a closed-nested child's
  // own reads (it is the leaf) before it merges. While the tree holds no
  // write, a child's round also carries its ancestors' entries held at the
  // nodes it asks (riders). Every entry of a round that succeeds records the
  // fetch count at the round's start.
  void validate_chain(Transaction& top, Scope scope);
  AccessEntry& admit_granted(Transaction& leaf, ObjectId oid, net::AccessMode mode,
                             const net::Message& reply);
  [[noreturn]] void abort_txn(AbortCause cause, int locus, SimDuration stall = 0);

  // Runs one round over `items`: takes this node's own answer in place or
  // sends the request of each item, then reads the answers in item order. It
  // returns once every answer passed its verdict; there is no second pass.
  void run_round(std::vector<RoundItem>& items, const Round& round);

  // Commit-phase helpers; a write item's target is the object's owner.
  std::vector<RoundItem> resolve_write_set(Transaction& root);
  void lock_write_set(TxnId txid, std::vector<RoundItem>& writes);
  // Waits until every home node answered; if the cluster shuts down first,
  // releases the locks and aborts.
  void register_write_set(TxnId txid, const std::vector<RoundItem>& writes,
                          std::uint64_t commit_clock);
  // Releases every lock of the set: in place where this node owns the
  // object, else by an AbortUnlock the owner side resends until answered.
  void release_locks(TxnId txid, const std::vector<RoundItem>& writes);
  // Installs the new copies: in place, or by a hand-off step that sends the
  // old owner its CommitRequest without waiting for the reply.
  void publish_write_set(Transaction& root, const std::vector<RoundItem>& writes,
                         std::uint64_t commit_clock);

  TfaConfig cfg_;
  net::Comm& comm_;
  OwnerCore& owner_;
  StatsTable& stats_;
  NodeClock& clock_;
  runtime::NodeMetrics& metrics_;
  std::atomic<std::uint64_t> txn_seq_{1};
};

}  // namespace hyflow::tfa
