#include "tfa/tfa_runtime.hpp"

#include <algorithm>
#include <thread>

#include "dsm/directory.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hyflow::tfa {

namespace {
// Wrong-owner re-resolutions (and lock/validate rounds) per operation.
constexpr int kMaxOwnerRetries = 8;
}  // namespace

using runtime::Counter;

TfaRuntime::TfaRuntime(const TfaConfig& cfg, net::Comm& comm, OwnerCore& owner,
                       StatsTable& stats, NodeClock& clock, runtime::NodeMetrics& metrics)
    : cfg_(cfg), comm_(comm), owner_(owner), stats_(stats), clock_(clock), metrics_(metrics) {}

// ---------------------------------------------------------------------------
// User handle
// ---------------------------------------------------------------------------

AccessEntry& Txn::open(ObjectId oid, net::AccessMode mode) {
  return rt_.open_object(level_, oid, mode);
}

void Txn::nested(const std::function<void(Txn&)>& body) {
  int retries = 0;
  for (;;) {
    Transaction child(level_);
    Txn handle(rt_, child);
    try {
      body(handle);
      // Closed-nested commit: early-validate the child's own reads before
      // its effects merge (Turcu & Ravindran's nested TFA). A stale child
      // aborts here — alone — instead of dooming the parent at root commit.
      rt_.validate_child(child);
      child.merge_into_parent();
      level_.root().nested_committed += 1;
      rt_.metrics().add(Counter::nested_commits);
      return;
    } catch (const AbortException& e) {
      // A closed-nested child whose *own* entry went stale retries alone;
      // anything rooted at an ancestor means the parent chain is doomed and
      // this child dies with it (parent-caused nested abort, Table I).
      const bool child_local = e.cause == AbortCause::kEarlyValidation &&
                               e.locus_depth >= child.depth();
      if (child_local && ++retries <= rt_.config().max_child_retries) {
        rt_.metrics().add_nested_abort(/*parent_cause=*/false);
        continue;
      }
      rt_.metrics().add_nested_abort(/*parent_cause=*/!child_local);
      throw;
    }
  }
}

// ---------------------------------------------------------------------------
// Requester side: run / open / forward / validate
// ---------------------------------------------------------------------------

RunResult TfaRuntime::run(std::uint32_t profile, const std::function<void(Txn&)>& body,
                          const std::function<bool()>& keep_going) {
  RunResult res;
  const SimTime first_start = sim_now();
  while (keep_going()) {
    ++res.attempts;
    const SimTime attempt_start = sim_now();
    // ETS.s is the transaction's *first* attempt start: Fig. 3 measures
    // T4's execution time from t1, spanning its earlier aborted attempt, so
    // a transaction that keeps losing ages into enqueue eligibility instead
    // of storming the hot object forever. ETS.c stays relative to the
    // current attempt — it estimates the *remaining* execution charged to
    // the queue.
    Transaction root(TxnId::make(comm_.self(), txn_seq_.fetch_add(1, std::memory_order_relaxed)),
                     clock_.read(), first_start,
                     stats_.expected_commit(profile, attempt_start));
    Txn handle(*this, root);
    try {
      body(handle);
      const bool read_only = root.set().write_count() == 0;
      commit_root(root);
      metrics_.add_commit(read_only);
      if (!read_only) stats_.record_commit(profile, sim_now() - attempt_start);
      res.committed = true;
      res.latency = sim_now() - first_start;
      metrics_.record_latency(static_cast<std::uint64_t>(res.latency));
      return res;
    } catch (const AbortException& e) {
      metrics_.add_root_abort(e.cause);
      // The root abort rolls back every closed-nested child that had
      // committed into it.
      if (root.nested_committed > 0)
        metrics_.add_nested_abort(/*parent_cause=*/true, root.nested_committed);
      if (e.cause == AbortCause::kShutdown) break;
      if (e.retry_stall > 0) std::this_thread::sleep_for(to_chrono(e.retry_stall));
    }
  }
  return res;
}

void TfaRuntime::abort_txn(AbortCause cause, int locus, ObjectId oid, SimDuration stall) {
  if (cause == AbortCause::kWatchdog) metrics_.add(Counter::watchdog_aborts);
  throw AbortException{cause, locus, oid, stall};
}

namespace {
// Maps an empty reliable_wait result to the right abort cause: the registry
// being closed means orderly shutdown; otherwise the retry budget ran out
// with the peer unreachable and the watchdog fires.
AbortCause empty_wait_cause(const net::RequestCall& call) {
  return call.closed() ? AbortCause::kShutdown : AbortCause::kWatchdog;
}
}  // namespace

AccessEntry& TfaRuntime::open_object(Transaction& leaf, ObjectId oid, net::AccessMode mode) {
  // Already in the transaction tree? Serve it locally — the fetched object
  // (and its round-trips) are reused across nesting levels.
  if (auto found = leaf.find_up(oid); found.entry) {
    if (found.depth == leaf.depth()) {
      if (mode == net::AccessMode::kWrite) found.entry->mutable_copy();
      return *found.entry;
    }
    AccessEntry view;
    view.inherited = true;
    view.base = found.entry->working
                    ? std::shared_ptr<const AbstractObject>(found.entry->working)
                    : found.entry->base;
    view.version = found.entry->version;
    view.mode = mode;
    view.owner_hint = found.entry->owner_hint;
    AccessEntry& e = leaf.set().insert(oid, std::move(view));
    if (mode == net::AccessMode::kWrite) e.mutable_copy();
    return e;
  }

  // Alg. 2 Open_Object: resolve the owner and request a copy.
  Transaction& root = leaf.root();
  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    const auto owner = find_owner(oid);
    if (!owner) abort_txn(AbortCause::kShutdown, 0, oid);

    net::ObjectRequest req;
    req.oid = oid;
    req.txid = root.id();
    req.mode = mode;
    req.requester_cl = leaf.collect_my_cl();
    req.ets = net::Ets{root.wall_start(), sim_now(), root.expected_commit()};

    auto call = comm_.request(*owner, req);
    const auto reply = net::reliable_wait(comm_, call, comm_.retry_policy());
    if (!reply) abort_txn(empty_wait_cause(call), 0, oid);
    const auto& resp = std::get<net::ObjectResponse>(reply->payload);

    if (resp.wrong_owner) {
      owner_.forget_owner(oid);
      metrics_.add(Counter::wrong_owner_retries);
      continue;
    }
    if (resp.object) {
      if (resp.handoff) comm_.post(reply->from, net::GrantAck{oid, root.id()});
      return admit_granted(leaf, oid, mode, *reply);
    }

    if (resp.enqueued) {
      // RTS parked us: the open blocks until the object is pushed (by the
      // validating transaction's commit/abort) or the backoff runs out.
      // A retried request can surface a replayed "enqueued" answer from the
      // owner's reply cache; those are skipped, only a grant (or scheduler
      // denial) ends the wait early.
      metrics_.add(Counter::enqueued);
      const SimTime deadline = sim_now() + std::max<SimDuration>(resp.backoff, sim_us(10));
      std::optional<net::Message> pushed;
      for (;;) {
        const SimTime now = sim_now();
        if (now >= deadline) break;
        pushed = call.poll_for(deadline - now);
        if (!pushed) break;
        const auto& next = std::get<net::ObjectResponse>(pushed->payload);
        if (next.object || !next.enqueued) break;  // grant or denial
        pushed.reset();  // duplicate park notice: keep waiting
      }
      if (!pushed) {
        metrics_.add(Counter::backoff_expired);
        // Proactively withdraw from the queue (best effort: the owner may
        // have moved) so the hand-off chain skips us instead of waiting for
        // the orphan-reply round-trip.
        net::NotInterested ni;
        ni.oid = oid;
        ni.txid = root.id();
        comm_.post(reply->from, ni);
        abort_txn(AbortCause::kBackoffExpired, 0, oid);
      }
      const auto& granted = std::get<net::ObjectResponse>(pushed->payload);
      if (granted.object) {
        metrics_.add(Counter::handoffs_received);
        if (granted.handoff) comm_.post(pushed->from, net::GrantAck{oid, root.id()});
        return admit_granted(leaf, oid, mode, *pushed);
      }
      abort_txn(AbortCause::kSchedulerDenied, 0, oid);
    }
    // Not enqueued: scheduler said abort — with a pre-retry stall under
    // TFA+Backoff, immediately under plain TFA.
    abort_txn(AbortCause::kSchedulerDenied, 0, oid, resp.backoff);
  }
  // Ownership kept moving under us; give up this attempt.
  abort_txn(AbortCause::kEarlyValidation, 0, oid);
}

std::optional<NodeId> TfaRuntime::find_owner(ObjectId oid) {
  if (const auto known = owner_.known_owner(oid)) return known;
  auto call =
      comm_.request(dsm::home_node(oid, comm_.cluster_size()), net::FindOwnerRequest{oid});
  const auto reply = net::reliable_wait(comm_, call, comm_.retry_policy());
  if (!reply) return std::nullopt;  // shutdown, or retry budget exhausted
  const auto& resp = std::get<net::FindOwnerResponse>(reply->payload);
  if (!resp.known) {
    HYFLOW_WARN("find_owner: object ", oid.value, " unknown to directory");
    return std::nullopt;
  }
  owner_.note_owner(oid, resp.owner);
  return resp.owner;
}

AccessEntry& TfaRuntime::admit_granted(Transaction& leaf, ObjectId oid, net::AccessMode mode,
                                       const net::Message& reply) {
  const auto& resp = std::get<net::ObjectResponse>(reply.payload);
  Transaction& root = leaf.root();
  forward_if_needed(root, reply.sender_clock);

  AccessEntry e;
  e.base = resp.object;
  e.version = resp.version;
  e.mode = mode;
  e.owner_hint = reply.from;
  e.owner_cl = resp.owner_cl;
  AccessEntry& ref = leaf.set().insert(oid, std::move(e));
  if (mode == net::AccessMode::kWrite) ref.mutable_copy();
  owner_.note_owner(oid, reply.from);
  return ref;
}

void TfaRuntime::forward_if_needed(Transaction& root, std::uint64_t observed_clock) {
  if (observed_clock <= root.start_clock()) return;
  // Transactional forwarding: the responder's clock is ahead of our start,
  // so everything read so far must be re-validated before the start clock
  // moves up (early validation; §II).
  metrics_.add(Counter::forwardings);
  validate_chain(root, /*reads_only=*/false);
  root.forward_to(observed_clock);
}

void TfaRuntime::validate_chain(Transaction& root, bool reads_only) {
  std::vector<ValidateItem> items;
  for (Transaction* t = &root; t != nullptr; t = t->active_child()) {
    for (auto& [oid, entry] : t->set()) {
      if (entry.inherited) continue;  // the real entry is validated upstream
      if (reads_only && entry.mode == net::AccessMode::kWrite) continue;
      items.push_back(
          ValidateItem{oid, &entry, t->depth(), entry.owner_hint, false, std::nullopt});
    }
  }
  run_validation(items);
}

void TfaRuntime::validate_child(Transaction& child) {
  // Closed-nested commit validation (Turcu & Ravindran, the paper's
  // substrate): before an inner transaction's effects merge into its
  // parent, its own fetched entries are early-validated. A failure aborts
  // the *child only* (locus = child depth), which then retries alone —
  // the paper's first cause of nested-transaction aborts.
  std::vector<ValidateItem> items;
  for (auto& [oid, entry] : child.set()) {
    if (entry.inherited) continue;
    items.push_back(
        ValidateItem{oid, &entry, child.depth(), entry.owner_hint, false, std::nullopt});
  }
  run_validation(items);
}

void TfaRuntime::run_validation(std::vector<ValidateItem>& items) {
  // Early validation of an access-set slice. Remote checks for one round
  // are issued concurrently — validation is a logical step, not a serial
  // walk, and a serial walk would stretch every forwarding by
  // read-set-size round-trips.
  // One verdict, from this node's own store or from a remote owner.
  const auto apply = [&](ValidateItem& it, dsm::ObjectStore::ValidateResult result) {
    switch (result) {
      case dsm::ObjectStore::ValidateResult::kValid:
        it.done = true;
        return;
      case dsm::ObjectStore::ValidateResult::kInvalid:
        abort_txn(AbortCause::kEarlyValidation, it.depth, it.oid);
      case dsm::ObjectStore::ValidateResult::kNotOwner:
        it.target = kInvalidNode;  // re-resolve below
        return;
    }
  };
  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    bool all_done = true;
    for (ValidateItem& it : items) {
      if (it.done) continue;
      all_done = false;
      if (it.target == comm_.self()) {
        apply(it, owner_.validate(it.oid, it.entry->version.clock));
      } else {
        net::ValidateRequest req;
        req.oid = it.oid;
        req.expected_clock = it.entry->version.clock;
        it.call.emplace(comm_.request(it.target, req));
      }
    }
    if (all_done) return;

    for (ValidateItem& it : items) {
      if (it.done || !it.call) continue;
      const auto reply = net::reliable_wait(comm_, *it.call, comm_.retry_policy());
      if (!reply) {
        const AbortCause cause = empty_wait_cause(*it.call);
        it.call.reset();
        abort_txn(cause, it.depth, it.oid);
      }
      it.call.reset();
      apply(it, std::get<net::ValidateResponse>(reply->payload).result);
    }
    for (ValidateItem& it : items) {
      if (it.done || it.target != kInvalidNode) continue;
      owner_.forget_owner(it.oid);
      metrics_.add(Counter::wrong_owner_retries);
      const auto owner = find_owner(it.oid);
      if (!owner) abort_txn(AbortCause::kShutdown, it.depth, it.oid);
      it.target = *owner;
    }
  }
  for (const ValidateItem& it : items)
    if (!it.done) abort_txn(AbortCause::kEarlyValidation, it.depth, it.oid);
}

// ---------------------------------------------------------------------------
// Commit protocol
// ---------------------------------------------------------------------------

std::vector<TfaRuntime::WriteTarget> TfaRuntime::resolve_write_set(Transaction& root) {
  std::vector<WriteTarget> writes;
  for (auto& [oid, entry] : root.set()) {
    if (entry.inherited || entry.mode != net::AccessMode::kWrite) continue;
    HYFLOW_ASSERT_MSG(entry.working != nullptr, "write entry without a working copy");
    writes.push_back(WriteTarget{oid, &entry, entry.owner_hint});
  }
  // Deterministic lock order across competing committers.
  std::sort(writes.begin(), writes.end(),
            [](const WriteTarget& a, const WriteTarget& b) { return a.oid < b.oid; });
  return writes;
}

void TfaRuntime::commit_root(Transaction& root) {
  HYFLOW_ASSERT(root.is_root());
  auto writes = resolve_write_set(root);

  if (writes.empty()) {
    // Read-only transaction: commit-time validation only, no locks, no
    // ownership changes. A single-object read needs no validation at all —
    // the fetched copy was the committed value at fetch time, so the
    // transaction serialises there (and cannot be starved by a write-hot
    // object).
    std::size_t fetched = 0;
    for (Transaction* t = &root; t != nullptr; t = t->active_child())
      for (const auto& [oid, entry] : t->set())
        if (!entry.inherited) ++fetched;
    if (fetched > 1) validate_chain(root, /*reads_only=*/false);
    return;
  }

  lock_write_set(root, writes);

  try {
    validate_chain(root, /*reads_only=*/true);
  } catch (...) {
    release_locks(root.id(), writes);
    throw;
  }

  const std::uint64_t commit_clock = clock_.increment_past(root.start_clock());

  // Global registration of object ownership — deliberately inside the
  // validation window (locks held): this is the long stretch during which
  // conflicting requesters hit the scheduler (§II). Requests go out
  // concurrently; the window is one directory round-trip, not one per object.
  {
    std::vector<net::RequestCall> calls;
    calls.reserve(writes.size());
    for (auto& w : writes) {
      net::RegisterOwnerRequest req;
      req.oid = w.oid;
      req.new_owner = comm_.self();
      req.version_clock = commit_clock;
      calls.push_back(comm_.request(dsm::home_node(w.oid, comm_.cluster_size()), req));
    }
    // Registration must not give up early — a half-registered write set
    // poisons the directory — so it gets a multiplied retry budget. If it
    // still fails, every possibly-applied registration is rolled back to
    // the previous owner at the same clock (register_owner accepts equal
    // clocks), then the locks are released and the commit aborts.
    const net::RetryPolicy policy = comm_.retry_policy().scaled(3);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (const auto reply = net::reliable_wait(comm_, calls[i], policy)) {
        // The home node kept a newer registration: counted, and the commit
        // still goes on.
        if (!std::get<net::RegisterOwnerResponse>(reply->payload).ok)
          metrics_.add(Counter::register_refusals);
        continue;
      }
      const AbortCause cause = empty_wait_cause(calls[i]);
      if (cause == AbortCause::kWatchdog) {
        HYFLOW_WARN("ownership registration of object ", writes[i].oid.value,
                    " timed out; rolling back the registered set");
        for (auto& w : writes) {
          if (w.owner == comm_.self()) continue;  // owner unchanged
          net::RegisterOwnerRequest undo;
          undo.oid = w.oid;
          undo.new_owner = w.owner;
          undo.version_clock = commit_clock;
          auto undo_call = comm_.request(dsm::home_node(w.oid, comm_.cluster_size()), undo);
          net::reliable_wait(comm_, undo_call, comm_.retry_policy());
        }
      }
      release_locks(root.id(), writes);
      abort_txn(cause, 0, writes[i].oid);
    }
  }

  publish_write_set(root, writes, commit_clock);
}

void TfaRuntime::lock_write_set(Transaction& root, std::vector<WriteTarget>& writes) {
  // Lock requests for one round go out concurrently (lock order is still
  // deterministic per object via the sort; grants never block, so there is
  // no deadlock to order around — only livelock, resolved by abort).
  const TxnId txid = root.id();
  std::vector<bool> locked(writes.size(), false);
  std::vector<std::optional<net::RequestCall>> calls(writes.size());

  const auto fail = [&](AbortCause cause, ObjectId oid) {
    // Collect outstanding grants before releasing, so no lock leaks. A call
    // that stays silent is treated as granted: the pessimistic unlock it
    // triggers is a no-op if the lock was never taken.
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (!calls[i]) continue;
      if (auto reply = calls[i]->poll_for(comm_.retry_policy().base_timeout)) {
        const auto& resp = std::get<net::LockResponse>(reply->payload);
        if (resp.result == dsm::ObjectStore::LockResult::kGranted) locked[i] = true;
      } else if (!calls[i]->closed()) {
        locked[i] = true;  // unknown outcome: release pessimistically
      }
      calls[i].reset();
    }
    for (std::size_t i = 0; i < writes.size(); ++i)
      if (locked[i]) release_lock(writes[i].oid, txid, writes[i].owner);
    abort_txn(cause, 0, oid);
  };
  // One verdict, from this node's own store or from a remote owner.
  const auto apply = [&](std::size_t i, dsm::ObjectStore::LockResult result) {
    switch (result) {
      case dsm::ObjectStore::LockResult::kGranted:
        locked[i] = true;
        return;
      case dsm::ObjectStore::LockResult::kBusy:
        return fail(AbortCause::kLockConflict, writes[i].oid);
      case dsm::ObjectStore::LockResult::kVersionMismatch:
        // The version read went stale: the lock doubles as validation.
        return fail(AbortCause::kEarlyValidation, writes[i].oid);
      case dsm::ObjectStore::LockResult::kNotOwner:
        writes[i].owner = kInvalidNode;  // re-resolve below
        return;
    }
  };

  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    bool all_locked = true;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (locked[i]) continue;
      all_locked = false;
      WriteTarget& w = writes[i];
      if (w.owner == comm_.self()) {
        apply(i, owner_.lock(w.oid, txid, w.entry->version.clock));
      } else {
        net::LockRequest req;
        req.oid = w.oid;
        req.txid = txid;
        req.expected_clock = w.entry->version.clock;
        calls[i].emplace(comm_.request(w.owner, req));
      }
    }
    if (all_locked) return;

    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (!calls[i]) continue;
      const auto reply = net::reliable_wait(comm_, *calls[i], comm_.retry_policy());
      if (!reply) {
        const AbortCause cause = empty_wait_cause(*calls[i]);
        calls[i].reset();
        fail(cause, writes[i].oid);
      }
      calls[i].reset();
      apply(i, std::get<net::LockResponse>(reply->payload).result);
    }
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (locked[i] || writes[i].owner != kInvalidNode) continue;
      owner_.forget_owner(writes[i].oid);
      metrics_.add(Counter::wrong_owner_retries);
      const auto owner = find_owner(writes[i].oid);
      if (!owner) fail(AbortCause::kShutdown, writes[i].oid);
      writes[i].owner = *owner;
    }
  }
  fail(AbortCause::kLockConflict, writes.front().oid);
}

void TfaRuntime::release_locks(TxnId txid, const std::vector<WriteTarget>& writes) {
  for (const WriteTarget& w : writes) release_lock(w.oid, txid, w.owner);
}

void TfaRuntime::release_lock(ObjectId oid, TxnId txid, NodeId owner) {
  if (owner == comm_.self()) return owner_.release(oid, txid);
  // Acked, retried release: a lost AbortUnlock would leave the object
  // locked at the owner with nobody left to unlock it.
  net::AbortUnlock msg;
  msg.oid = oid;
  msg.txid = txid;
  auto call = comm_.request(owner, msg);
  if (!net::reliable_wait(comm_, call, comm_.retry_policy()) && !call.closed()) {
    HYFLOW_WARN("abort-unlock of object ", oid.value, " at node ", owner,
                " unacknowledged; lock release outcome unknown");
  }
}

void TfaRuntime::publish_write_set(Transaction& root, const std::vector<WriteTarget>& writes,
                                   std::uint64_t commit_clock) {
  // Past this point the commit is decided: every lock is held, the read set
  // validated, and ownership registered. Nothing here waits: an object that
  // moves here is installed and its hand-off sent in one owner step, and the
  // old owner's reply is absorbed when it lands (Alg. 4).
  const TxnId txid = root.id();
  const Version version{commit_clock, comm_.self()};
  for (const WriteTarget& w : writes) {
    ObjectSnapshot snapshot = std::move(w.entry->working);
    if (w.owner == comm_.self()) {
      owner_.commit_in_place(w.oid, txid, std::move(snapshot), version);
    } else {
      owner_.commit_handoff(w.owner, txid, std::move(snapshot), version);
    }
  }
}

void TfaRuntime::handle_orphan_reply(const net::Message& msg) {
  // Only a granted object needs the NotInterested protocol: the requester's
  // backoff expired before the hand-off arrived (Alg. 4 else-branch).
  if (const auto* resp = std::get_if<net::ObjectResponse>(&msg.payload);
      resp && resp->object) {
    net::NotInterested ni;
    ni.oid = resp->oid;
    ni.txid = resp->txid;
    comm_.post(msg.from, ni);
  }
}

}  // namespace hyflow::tfa
