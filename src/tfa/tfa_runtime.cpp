#include "tfa/tfa_runtime.hpp"

#include <algorithm>
#include <thread>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace hyflow::tfa {

namespace {
// Wrong-owner re-resolutions (and lock/validate rounds) per operation.
constexpr int kMaxOwnerRetries = 8;
}  // namespace

using runtime::Counter;

TfaRuntime::TfaRuntime(const TfaConfig& cfg, net::Comm& comm, Mutex& owner_mu,
                       dsm::ObjectStore& store, dsm::DirectoryShard& directory,
                       dsm::OwnerResolver& resolver, core::Scheduler& scheduler,
                       core::ContentionTracker& contention, StatsTable& stats,
                       NodeClock& clock, runtime::NodeMetrics& metrics)
    : cfg_(cfg),
      comm_(comm),
      owner_mu_(owner_mu),
      store_(store),
      directory_(directory),
      resolver_(resolver),
      scheduler_(scheduler),
      contention_(contention),
      stats_(stats),
      clock_(clock),
      metrics_(metrics) {}

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
                     profile, clock_.read(), first_start,
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
    view.fetch_depth = leaf.depth();
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
      resolver_.invalidate(oid);
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
  {
    MutexLock lk(owner_mu_);
    if (store_.owns(oid)) return comm_.self();
  }
  return resolver_.find_owner(oid);
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
  e.fetch_depth = leaf.depth();
  AccessEntry& ref = leaf.set().insert(oid, std::move(e));
  if (mode == net::AccessMode::kWrite) ref.mutable_copy();
  resolver_.note_owner(oid, reply.from);
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
  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    bool all_done = true;
    for (ValidateItem& it : items) {
      if (it.done) continue;
      all_done = false;
      if (it.target == comm_.self()) {
        const auto result = [&] {
          MutexLock lk(owner_mu_);
          return store_.validate(it.oid, it.entry->version.clock, kInvalidTxn);
        }();
        switch (result) {
          case dsm::ObjectStore::ValidateResult::kValid:
            it.done = true;
            break;
          case dsm::ObjectStore::ValidateResult::kInvalid:
            abort_txn(AbortCause::kEarlyValidation, it.depth, it.oid);
          case dsm::ObjectStore::ValidateResult::kNotOwner:
            it.target = kInvalidNode;  // re-resolve below
            break;
        }
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
      const auto& resp = std::get<net::ValidateResponse>(reply->payload);
      if (resp.valid) {
        it.done = true;
      } else if (!resp.wrong_owner) {
        abort_txn(AbortCause::kEarlyValidation, it.depth, it.oid);
      } else {
        it.target = kInvalidNode;
      }
    }
    for (ValidateItem& it : items) {
      if (it.done || it.target != kInvalidNode) continue;
      resolver_.invalidate(it.oid);
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
    release_locks(root.id(), writes, writes.size());
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
      if (net::reliable_wait(comm_, calls[i], policy)) continue;
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
      release_locks(root.id(), writes, writes.size());
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

  const auto release_granted = [&] {
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (!locked[i]) continue;
      if (writes[i].owner == comm_.self()) {
        release_local_lock(writes[i].oid, txid);
      } else {
        release_remote_lock(writes[i].oid, txid, writes[i].owner);
      }
    }
  };
  const auto fail = [&](AbortCause cause, ObjectId oid) {
    // Collect outstanding grants before releasing, so no lock leaks. A call
    // that stays silent is treated as granted: the pessimistic unlock it
    // triggers is a no-op if the lock was never taken.
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (!calls[i]) continue;
      if (auto reply = calls[i]->poll_for(comm_.retry_policy().base_timeout)) {
        const auto& resp = std::get<net::LockResponse>(reply->payload);
        if (resp.granted) locked[i] = true;
      } else if (!calls[i]->closed()) {
        locked[i] = true;  // unknown outcome: release pessimistically
      }
      calls[i].reset();
    }
    release_granted();
    abort_txn(cause, 0, oid);
  };

  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    bool all_locked = true;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (locked[i]) continue;
      all_locked = false;
      WriteTarget& w = writes[i];
      if (w.owner == comm_.self()) {
        const auto result = [&] {
          MutexLock lk(owner_mu_);
          return store_.lock(w.oid, txid, w.entry->version.clock);
        }();
        switch (result) {
          case dsm::ObjectStore::LockResult::kGranted:
            locked[i] = true;
            break;
          case dsm::ObjectStore::LockResult::kBusy:
            fail(AbortCause::kLockConflict, w.oid);
            break;
          case dsm::ObjectStore::LockResult::kVersionMismatch:
            fail(AbortCause::kEarlyValidation, w.oid);
            break;
          case dsm::ObjectStore::LockResult::kNotOwner:
            w.owner = kInvalidNode;  // re-resolve below
            break;
        }
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
      const auto& resp = std::get<net::LockResponse>(reply->payload);
      if (resp.granted) {
        locked[i] = true;
      } else if (resp.wrong_owner) {
        writes[i].owner = kInvalidNode;
      } else {
        fail(AbortCause::kLockConflict, writes[i].oid);
      }
    }
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (locked[i] || writes[i].owner != kInvalidNode) continue;
      resolver_.invalidate(writes[i].oid);
      metrics_.add(Counter::wrong_owner_retries);
      const auto owner = find_owner(writes[i].oid);
      if (!owner) fail(AbortCause::kShutdown, writes[i].oid);
      writes[i].owner = *owner;
    }
  }
  fail(AbortCause::kLockConflict, writes.front().oid);
}

void TfaRuntime::release_locks(const TxnId txid, const std::vector<WriteTarget>& writes,
                               std::size_t count) {
  for (std::size_t i = 0; i < count && i < writes.size(); ++i) {
    const WriteTarget& w = writes[i];
    if (w.owner == comm_.self()) {
      release_local_lock(w.oid, txid);
    } else {
      release_remote_lock(w.oid, txid, w.owner);
    }
  }
}

void TfaRuntime::release_local_lock(ObjectId oid, TxnId txid) {
  MutexLock lk(owner_mu_);
  if (auto slot = store_.get(oid); slot && slot->locked_by == txid)
    record_hold(slot->locked_at);
  store_.unlock(oid, txid);
  serve_waiters(oid);
}

void TfaRuntime::release_remote_lock(ObjectId oid, TxnId txid, NodeId owner) {
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

void TfaRuntime::publish_write_set(Transaction& root, std::vector<WriteTarget>& writes,
                                   std::uint64_t commit_clock) {
  // Past this point the commit is decided: every lock is held, the read set
  // validated, and ownership registered. Publishing must complete for all
  // objects even if the cluster starts shutting down mid-way — a torn
  // publish would break atomicity (e.g. Bank's conservation invariant).
  const TxnId txid = root.id();
  const Version version{commit_clock, comm_.self()};
  std::vector<std::optional<net::RequestCall>> calls(writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    WriteTarget& w = writes[i];
    ObjectSnapshot snapshot = std::move(w.entry->working);
    if (w.owner == comm_.self()) {
      MutexLock lk(owner_mu_);
      if (auto slot = store_.get(w.oid); slot && slot->locked_by == txid)
        record_hold(slot->locked_at);
      const bool ok = store_.commit_in_place(w.oid, txid, snapshot, version);
      HYFLOW_ASSERT_MSG(ok, "commit_in_place on a lock we hold must succeed");
      serve_waiters(w.oid);
    } else {
      // Install locally first — the directory already points here, so the
      // new copy must be servable before the old owner's slot goes away.
      {
        MutexLock lk(owner_mu_);
        store_.install(snapshot, version);
      }
      resolver_.note_owner(w.oid, comm_.self());
      net::CommitRequest req;
      req.oid = w.oid;
      req.txid = txid;
      req.new_version = version;
      req.new_owner = comm_.self();
      calls[i].emplace(comm_.request(w.owner, req));
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (!calls[i]) continue;
    // The hand-off must survive message loss: without it the old owner's
    // copy stays locked and its parked requesters are stranded. The
    // receiver's reply cache preserves the extracted queue, so a retried
    // CommitRequest is answered with the queue captured at the real
    // hand-over, never an empty one.
    auto reply = net::reliable_wait(comm_, *calls[i], comm_.retry_policy().scaled(3));
    if (!reply && !calls[i]->closed()) {
      HYFLOW_WARN("commit hand-off of object ", writes[i].oid.value, " to node ",
                  comm_.self(), " unacknowledged; old owner copy stays locked");
    }
    // The commit stands either way: locks were held, reads validated and
    // ownership registered before publication began.
    MutexLock lk(owner_mu_);
    if (reply) {
      // Inherit the previous owner's scheduling queue (Alg. 4: the node
      // invoking the committed transaction receives the requester lists).
      scheduler_.absorb_queue(writes[i].oid,
                              std::move(std::get<net::CommitResponse>(reply->payload).queue));
    }
    serve_waiters(writes[i].oid);
  }
}

// ---------------------------------------------------------------------------
// Owner side
// ---------------------------------------------------------------------------

void TfaRuntime::handle_request(const net::Message& msg) {
  MutexLock lk(owner_mu_);
  if (std::holds_alternative<net::FindOwnerRequest>(msg.payload)) return on_find_owner(msg);
  if (std::holds_alternative<net::RegisterOwnerRequest>(msg.payload))
    return on_register_owner(msg);
  if (std::holds_alternative<net::ObjectRequest>(msg.payload)) return on_object_request(msg);
  if (std::holds_alternative<net::LockRequest>(msg.payload)) return on_lock(msg);
  if (std::holds_alternative<net::ValidateRequest>(msg.payload)) return on_validate(msg);
  if (std::holds_alternative<net::CommitRequest>(msg.payload)) return on_commit(msg);
  if (std::holds_alternative<net::AbortUnlock>(msg.payload)) return on_abort_unlock(msg);
  if (std::holds_alternative<net::NotInterested>(msg.payload)) return on_not_interested(msg);
  if (std::holds_alternative<net::GrantAck>(msg.payload)) return on_grant_ack(msg);
  HYFLOW_WARN("unhandled request payload: ", net::payload_name(msg.payload));
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

void TfaRuntime::on_find_owner(const net::Message& msg) {
  const auto& req = std::get<net::FindOwnerRequest>(msg.payload);
  const auto owner = directory_.lookup(req.oid);
  net::FindOwnerResponse resp;
  resp.oid = req.oid;
  resp.owner = owner.value_or(kInvalidNode);
  resp.known = owner.has_value();
  comm_.reply(msg, resp);
}

void TfaRuntime::on_register_owner(const net::Message& msg) {
  const auto& req = std::get<net::RegisterOwnerRequest>(msg.payload);
  net::RegisterOwnerResponse resp;
  resp.oid = req.oid;
  resp.ok = directory_.register_owner(req.oid, req.new_owner, req.version_clock);
  comm_.reply(msg, resp);
}

void TfaRuntime::on_object_request(const net::Message& msg) {
  const auto& req = std::get<net::ObjectRequest>(msg.payload);
  const SimTime now = sim_now();

  net::ObjectResponse resp;
  resp.oid = req.oid;
  resp.txid = req.txid;

  const auto slot = store_.get(req.oid);
  if (!slot) {
    resp.wrong_owner = true;
    comm_.reply(msg, resp);
    return;
  }

  contention_.record_request(req.oid, req.txid, now);

  if (!slot->locked_by.valid()) {
    // Free object: grant a copy immediately. Drop any stale queue entry
    // left by an earlier attempt of the same transaction.
    scheduler_.remove_requester(req.oid, req.txid);
    resp.object = slot->object;
    resp.version = slot->version;
    resp.owner_cl = contention_.local_cl(req.oid, now);
    comm_.reply(msg, resp);
    // A free object with parked requesters means a hand-off chain stalled
    // (its head aborted before committing this object); use the ambient
    // request to drain it rather than letting the queue wait out backoffs.
    serve_waiters(req.oid);
    return;
  }

  // The object is being validated: Retrieve_Request's scheduler decision.
  metrics_.add(Counter::conflicts_seen);
  core::ConflictContext ctx;
  ctx.oid = req.oid;
  ctx.requester_node = msg.from;
  ctx.request_msg_id = msg.msg_id;
  ctx.request = req;
  ctx.local_cl = contention_.local_cl(req.oid, now);
  ctx.validator_remaining = validator_remaining(*slot, now);
  ctx.now = now;
  const auto decision = scheduler_.on_conflict(ctx);
  resp.backoff = decision.backoff;
  resp.enqueued = decision.action == core::ConflictAction::kEnqueue;
  comm_.reply(msg, resp);
}

void TfaRuntime::on_lock(const net::Message& msg) {
  const auto& req = std::get<net::LockRequest>(msg.payload);
  const auto result = store_.lock(req.oid, req.txid, req.expected_clock);
  net::LockResponse resp;
  resp.oid = req.oid;
  resp.granted = result == dsm::ObjectStore::LockResult::kGranted;
  resp.wrong_owner = result == dsm::ObjectStore::LockResult::kNotOwner;
  comm_.reply(msg, resp);
}

void TfaRuntime::on_validate(const net::Message& msg) {
  const auto& req = std::get<net::ValidateRequest>(msg.payload);
  const auto result = store_.validate(req.oid, req.expected_clock, kInvalidTxn);
  net::ValidateResponse resp;
  resp.oid = req.oid;
  resp.valid = result == dsm::ObjectStore::ValidateResult::kValid;
  resp.wrong_owner = result == dsm::ObjectStore::ValidateResult::kNotOwner;
  comm_.reply(msg, resp);
}

void TfaRuntime::on_commit(const net::Message& msg) {
  const auto& req = std::get<net::CommitRequest>(msg.payload);
  if (const auto view = store_.evict(req.oid, req.txid); view && view->locked_by.valid())
    record_hold(view->locked_at);
  net::CommitResponse resp;
  resp.oid = req.oid;
  // Hand the scheduling queue over to the new owner.
  resp.queue = scheduler_.extract_queue(req.oid);
  contention_.forget(req.oid);
  resolver_.note_owner(req.oid, req.new_owner);
  comm_.reply(msg, resp);
}

void TfaRuntime::on_abort_unlock(const net::Message& msg) {
  const auto& req = std::get<net::AbortUnlock>(msg.payload);
  if (auto slot = store_.get(req.oid); slot && slot->locked_by == req.txid)
    record_hold(slot->locked_at);
  store_.unlock(req.oid, req.txid);
  // Acknowledge so the releaser's retry loop stops (the reply to a legacy
  // one-way post is dropped as an uninteresting orphan).
  comm_.reply(msg, net::Ack{req.oid});
  // "If Tk aborts, the objects that Tk is using will be released, and the
  // other transactions will obtain the objects." (§III-A)
  serve_waiters(req.oid);
}

void TfaRuntime::on_not_interested(const net::Message& msg) {
  const auto& req = std::get<net::NotInterested>(msg.payload);
  metrics_.add(Counter::not_interested);
  grants_.erase({req.oid.value, req.txid.value});
  scheduler_.remove_requester(req.oid, req.txid);
  if (store_.owns(req.oid)) {
    serve_waiters(req.oid);
    return;
  }
  // An Alg. 4 hand-off moved the object, and with it the queue holding this
  // requester, after the requester parked here: pass the withdrawal on to
  // the node this one handed the object to. The hop bound stops a cycle of
  // hints, which a late fetch reply from a former owner can close.
  const auto next = resolver_.hint(req.oid);
  if (!next || *next == comm_.self() || req.hops + 1 >= comm_.cluster_size()) return;
  net::NotInterested forward = req;
  forward.hops += 1;
  comm_.post(*next, forward);
}

void TfaRuntime::on_grant_ack(const net::Message& msg) {
  const auto& req = std::get<net::GrantAck>(msg.payload);
  grants_.erase({req.oid.value, req.txid.value});
}

void TfaRuntime::sweep_grants(SimTime now) {
  MutexLock lk(owner_mu_);
  std::vector<PendingGrant> expired;
  for (auto it = grants_.begin(); it != grants_.end();) {
    if (it->second.deadline <= now) {
      expired.push_back(it->second);
      it = grants_.erase(it);
    } else {
      ++it;
    }
  }
  for (const PendingGrant& g : expired) {
    // The grant (or its ack) is presumed lost: forget the silent requester
    // and hand the object to the next one — a dropped Alg. 4 push must not
    // strand the rest of the queue.
    metrics_.add(Counter::grant_reforwards);
    scheduler_.remove_requester(g.oid, g.req.txid);
    serve_waiters(g.oid);
  }
}

void TfaRuntime::serve_waiters(ObjectId oid) {
  const auto slot = store_.get(oid);
  if (!slot || slot->locked_by.valid()) return;
  const auto group = scheduler_.on_object_available(oid);
  if (group.empty()) return;
  metrics_.add(Counter::handoffs_sent, group.size());
  for (const auto& q : group) send_grant(q, oid, slot->object, slot->version);
}

void TfaRuntime::record_hold(SimTime locked_at) {
  if (locked_at <= 0) return;
  const SimDuration held = sim_now() - locked_at;
  if (held <= 0) return;
  hold_ewma_.add(static_cast<double>(held));
}

SimDuration TfaRuntime::expected_hold() const {
  if (!hold_ewma_.seeded()) return cfg_.default_validation_hold;
  return static_cast<SimDuration>(hold_ewma_.value());
}

SimDuration TfaRuntime::validator_remaining(const dsm::SlotView& slot, SimTime now) const {
  const SimDuration held_so_far = slot.locked_at > 0 ? now - slot.locked_at : 0;
  return std::max<SimDuration>(expected_hold() - held_so_far, sim_us(100));
}

void TfaRuntime::send_grant(const net::QueuedRequester& to, ObjectId oid,
                            const ObjectSnapshot& obj, Version version) {
  net::ObjectResponse resp;
  resp.oid = oid;
  resp.txid = to.txid;
  resp.object = obj;
  resp.version = version;
  resp.owner_cl = contention_.local_cl(oid, sim_now());
  resp.handoff = true;  // requester must GrantAck or the grant is re-served
  grants_[{oid.value, to.txid.value}] =
      PendingGrant{oid, to, sim_now() + cfg_.grant_ack_timeout};
  comm_.reply_routed(to.address, to.reply_msg_id, resp);
}

}  // namespace hyflow::tfa
