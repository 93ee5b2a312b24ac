#include "tfa/tfa_runtime.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "dsm/directory.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hyflow::tfa {

namespace {
// Wrong-owner re-resolutions per open.
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
      // its effects merge (Turcu & Ravindran's nested TFA). A stale read
      // aborts the child here — alone — instead of dooming the parent at
      // root commit. Its writes are checked once, by the root's commit lock.
      rt_.validate_chain(child, TfaRuntime::Scope::kReads);
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

void TfaRuntime::abort_txn(AbortCause cause, int locus, SimDuration stall) {
  if (cause == AbortCause::kWatchdog) metrics_.add(Counter::watchdog_aborts);
  throw AbortException{cause, locus, stall};
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
  // (and its round-trips) are reused across nesting levels. A read takes the
  // entry as it is; a child's first write to an ancestor's entry makes a view
  // that holds the write until the child merges.
  if (auto found = leaf.find_up(oid); found.entry) {
    if (found.depth == leaf.depth() || mode == net::AccessMode::kRead) {
      if (mode == net::AccessMode::kWrite) found.entry->mutable_copy();
      return *found.entry;
    }
    AccessEntry view;
    view.inherited = true;
    view.base = found.entry->working
                    ? std::shared_ptr<const AbstractObject>(found.entry->working)
                    : found.entry->base;
    view.version = found.entry->version;
    view.owner_hint = found.entry->owner_hint;
    AccessEntry& e = leaf.set().insert(oid, std::move(view));
    e.mutable_copy();
    return e;
  }

  // Alg. 2 Open_Object: resolve the owner and request a copy.
  Transaction& root = leaf.root();
  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    const auto owner = find_owner(oid);
    if (!owner) abort_txn(AbortCause::kShutdown, 0);  // unknown to its directory

    net::ObjectRequest req;
    req.oid = oid;
    req.txid = root.id();
    req.mode = mode;
    req.requester_cl = leaf.collect_my_cl();
    req.ets = net::Ets{root.wall_start(), sim_now(), root.expected_commit()};

    auto call = comm_.request(*owner, req);
    const auto reply = net::reliable_wait(comm_, call, comm_.retry_policy());
    if (!reply) abort_txn(empty_wait_cause(call), 0);
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
        abort_txn(AbortCause::kBackoffExpired, 0);
      }
      const auto& granted = std::get<net::ObjectResponse>(pushed->payload);
      if (granted.object) {
        metrics_.add(Counter::handoffs_received);
        if (granted.handoff) comm_.post(pushed->from, net::GrantAck{oid, root.id()});
        return admit_granted(leaf, oid, mode, *pushed);
      }
      abort_txn(AbortCause::kSchedulerDenied, 0);
    }
    // Not enqueued: scheduler said abort — with a pre-retry stall under
    // TFA+Backoff, immediately under plain TFA.
    abort_txn(AbortCause::kSchedulerDenied, 0, resp.backoff);
  }
  // Ownership kept moving under us; give up this attempt.
  abort_txn(AbortCause::kEarlyValidation, 0);
}

std::optional<NodeId> TfaRuntime::find_owner(ObjectId oid) {
  if (const auto known = owner_.known_owner(oid)) return known;
  // A round of one item: the home node's directory.
  std::vector<RoundItem> home;
  home.push_back(RoundItem{oid, nullptr, dsm::home_node(oid, comm_.cluster_size())});
  std::optional<NodeId> owner;
  run_round(home, {
      .policy = comm_.retry_policy(),
      .request = [](const RoundItem& it) -> net::Payload {
        return net::FindOwnerRequest{it.oid};
      },
      .verdict = [&](const RoundItem&, const net::Payload& answer) {
        const auto& resp = std::get<net::FindOwnerResponse>(answer);
        if (resp.known) owner = resp.owner;
      },
      .fail = [&](AbortCause cause, const RoundItem&) { abort_txn(cause, 0); },
  });
  if (!owner) {
    HYFLOW_WARN("find_owner: object ", oid.value, " unknown to directory");
    return std::nullopt;
  }
  owner_.note_owner(oid, *owner);
  return owner;
}

AccessEntry& TfaRuntime::admit_granted(Transaction& leaf, ObjectId oid, net::AccessMode mode,
                                       const net::Message& reply) {
  const auto& resp = std::get<net::ObjectResponse>(reply.payload);
  Transaction& root = leaf.root();
  forward_if_needed(root, reply.sender_clock);

  AccessEntry e;
  e.fetched_at = root.count_fetch();
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
  validate_chain(root, Scope::kAll);
  root.forward_to(observed_clock);
}

void TfaRuntime::validate_chain(Transaction& top, Scope scope) {
  // One round, not a serial walk, which would stretch every forwarding by
  // read-set-size round-trips. A stale entry aborts at its own depth, so a
  // child whose own read went stale retries alone (Turcu & Ravindran).
  Transaction& root = top.root();
  const std::uint64_t started = root.fetches();
  std::vector<RoundItem> items;
  bool writes = false;
  for (Transaction* t = &root; t != nullptr; t = t->active_child()) {
    for (auto& [oid, entry] : t->set()) {
      writes = writes || entry.mode == net::AccessMode::kWrite;
      if (t->depth() < top.depth()) continue;  // an ancestor: a rider at most
      if (entry.inherited) continue;           // the real entry is validated upstream
      if (scope == Scope::kReads && entry.mode == net::AccessMode::kWrite) continue;
      if (scope == Scope::kUnproven && entry.current_at(started)) continue;
      items.push_back(RoundItem{oid, &entry, entry.owner_hint, t->depth()});
    }
  }
  // Riders: a read-only tree's child round also asks each node it already
  // asks about the ancestors' entries held there. The round takes no longer,
  // and the read-only commit skips what it finds current (commit_root).
  if (!top.is_root() && !writes) {
    std::set<NodeId> asked;
    for (const RoundItem& it : items) asked.insert(it.target);
    for (Transaction* t = &root; t != &top; t = t->active_child())
      for (auto& [oid, entry] : t->set())
        if (!entry.inherited && asked.count(entry.owner_hint) > 0)
          items.push_back(RoundItem{oid, &entry, entry.owner_hint, t->depth()});
  }
  run_round(items, {
      .policy = comm_.retry_policy(),
      .request = [](const RoundItem& it) -> net::Payload {
        return net::ValidateRequest{it.oid, it.entry->version.clock};
      },
      .verdict = [&](const RoundItem& it, const net::Payload& answer) {
        // Only a commit moves an object, and it installs a larger clock: a
        // copy whose node no longer owns it is as stale as a changed one.
        if (std::get<net::ValidateResponse>(answer).result !=
            dsm::ObjectStore::ValidateResult::kValid)
          abort_txn(AbortCause::kEarlyValidation, it.depth);
      },
      .fail = [&](AbortCause cause, const RoundItem& it) { abort_txn(cause, it.depth); },
  });
  for (const RoundItem& it : items) it.entry->validated_at = started;
}

void TfaRuntime::run_round(std::vector<RoundItem>& items, const Round& round) {
  for (RoundItem& it : items) {
    if (it.target == comm_.self()) {
      round.verdict(it, owner_.answer(round.request(it)));
      it.done = true;
    } else {
      it.call.emplace(comm_.request(it.target, round.request(it)));
    }
  }
  for (RoundItem& it : items) {
    if (!it.call) continue;
    const auto reply = net::reliable_wait(comm_, *it.call, round.policy);
    // A silent item keeps its call through the clean-up, which treats it
    // like the round's other outstanding calls.
    if (!reply) round.fail(empty_wait_cause(*it.call), it);
    it.call.reset();
    round.verdict(it, reply->payload);
    it.done = true;
  }
}

// ---------------------------------------------------------------------------
// Commit protocol
// ---------------------------------------------------------------------------

std::vector<TfaRuntime::RoundItem> TfaRuntime::resolve_write_set(Transaction& root) {
  // Deterministic lock order across competing committers.
  std::map<ObjectId, AccessEntry*> sorted;
  for (auto& [oid, entry] : root.set())
    if (!entry.inherited && entry.mode == net::AccessMode::kWrite) sorted.emplace(oid, &entry);
  std::vector<RoundItem> writes;
  for (const auto& [oid, entry] : sorted) {
    HYFLOW_ASSERT_MSG(entry->working != nullptr, "write entry without a working copy");
    writes.push_back(RoundItem{oid, entry, entry->owner_hint});
  }
  return writes;
}

void TfaRuntime::commit_root(Transaction& root) {
  HYFLOW_ASSERT(root.is_root());
  auto writes = resolve_write_set(root);

  if (writes.empty()) {
    // Read-only transaction: no locks, no ownership changes. It serializes
    // at the instant its last fetch was served, so it validates only the
    // entries with no evidence of being current then. The entry fetched last
    // was current when served. An entry that a round begun after the last
    // fetch found current at instant t held its read version from its fetch
    // to t: versions only grow, and an object leaves a node only with a
    // commit that installs a larger clock. Every read was therefore current
    // at that serving instant. A tree that fetched one object, or whose last
    // child's round (riders included) covered every entry, sends nothing.
    validate_chain(root, Scope::kUnproven);
    return;
  }

  lock_write_set(root.id(), writes);

  try {
    validate_chain(root, Scope::kReads);
  } catch (...) {
    release_locks(root.id(), writes);
    throw;
  }

  const std::uint64_t commit_clock = clock_.increment_past(root.start_clock());
  register_write_set(root.id(), writes, commit_clock);
  publish_write_set(root, writes, commit_clock);
}

void TfaRuntime::lock_write_set(TxnId txid, std::vector<RoundItem>& writes) {
  // Locks are requested in object order (resolve_write_set); grants never
  // block, so there is no deadlock to order around — only livelock,
  // resolved by abort.
  const auto fail = [&](AbortCause cause, const RoundItem&) {
    // Collect outstanding grants before releasing, so no lock leaks. A call
    // that stays silent, the one whose budget ran out included, is treated
    // as granted: the pessimistic unlock it triggers is a no-op if the lock
    // was never taken. The releases go out at once; none waits.
    for (RoundItem& w : writes) {
      if (!w.call) continue;
      if (auto reply = w.call->poll_for(comm_.retry_policy().base_timeout)) {
        w.done = std::get<net::LockResponse>(reply->payload).result ==
                 dsm::ObjectStore::LockResult::kGranted;
      } else {
        w.done = !w.call->closed();  // unknown outcome: release pessimistically
      }
      w.call.reset();
    }
    for (const RoundItem& w : writes)
      if (w.done) owner_.release(w.oid, txid, w.target);
    abort_txn(cause, 0);
  };
  run_round(writes, {
      .policy = comm_.retry_policy(),
      .request = [&](const RoundItem& w) -> net::Payload {
        return net::LockRequest{w.oid, txid, w.entry->version.clock};
      },
      .verdict = [&](const RoundItem& w, const net::Payload& answer) {
        const auto result = std::get<net::LockResponse>(answer).result;
        if (result == dsm::ObjectStore::LockResult::kBusy) fail(AbortCause::kLockConflict, w);
        // The version read went stale, or the object moved on with a commit
        // that installed a larger clock: the lock doubles as validation.
        if (result != dsm::ObjectStore::LockResult::kGranted)
          fail(AbortCause::kEarlyValidation, w);
      },
      .fail = fail,
  });
}

void TfaRuntime::register_write_set(TxnId txid, const std::vector<RoundItem>& writes,
                                    std::uint64_t commit_clock) {
  // Global registration of object ownership — deliberately inside the
  // validation window (locks held): this is the long stretch during which
  // conflicting requesters hit the scheduler (§II). The window is one
  // directory round-trip, not one per object; this node's own directory
  // shard registers in place.
  std::vector<RoundItem> homes;
  for (const RoundItem& w : writes)
    homes.push_back(RoundItem{w.oid, w.entry, dsm::home_node(w.oid, comm_.cluster_size())});
  // Registration never gives up: a half-registered write set poisons the
  // directory, and every fault window closes.
  net::RetryPolicy until_answered = comm_.retry_policy();
  until_answered.max_retries = net::kUntilAnswered;
  run_round(homes, {
      .policy = until_answered,
      .request = [&](const RoundItem& it) -> net::Payload {
        return net::RegisterOwnerRequest{it.oid, comm_.self(), commit_clock};
      },
      .verdict = [&](const RoundItem&, const net::Payload& answer) {
        // No reachable run refuses a registration (docs/PROTOCOL.md): the
        // commit clock is past every clock registered for the object. A
        // refusal is counted, and the commit goes on.
        if (!std::get<net::RegisterOwnerResponse>(answer).ok)
          metrics_.add(Counter::register_refusals);
      },
      // Only shutdown closes the wait.
      .fail = [&](AbortCause cause, const RoundItem&) {
        release_locks(txid, writes);
        abort_txn(cause, 0);
      },
  });
}

void TfaRuntime::release_locks(TxnId txid, const std::vector<RoundItem>& writes) {
  for (const RoundItem& w : writes) owner_.release(w.oid, txid, w.target);
}

void TfaRuntime::publish_write_set(Transaction& root, const std::vector<RoundItem>& writes,
                                   std::uint64_t commit_clock) {
  // Past this point the commit is decided: every lock is held, the read set
  // validated, and ownership registered. Nothing here waits: an object that
  // moves here is installed and its hand-off sent in one owner step, and the
  // old owner's reply is absorbed when it lands (Alg. 4).
  const TxnId txid = root.id();
  const Version version{commit_clock, comm_.self()};
  for (const RoundItem& w : writes) {
    ObjectSnapshot snapshot = std::move(w.entry->working);
    if (w.target == comm_.self()) {
      owner_.commit_in_place(w.oid, txid, std::move(snapshot), version);
    } else {
      owner_.commit_handoff(w.target, txid, std::move(snapshot), version);
    }
  }
}

}  // namespace hyflow::tfa
