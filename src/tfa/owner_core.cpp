#include "tfa/owner_core.hpp"

#include <algorithm>

#include "tfa/tfa_runtime.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hyflow::tfa {

using runtime::Counter;

OwnerCore::OwnerCore(const TfaConfig& cfg, const core::SchedulerConfig& scheduler,
                     net::Comm& comm, runtime::NodeMetrics& metrics)
    : default_validation_hold_(cfg.default_validation_hold),
      grant_ack_timeout_(cfg.grant_ack_timeout),
      comm_(comm),
      metrics_(metrics),
      scheduler_(scheduler),
      contention_(scheduler.contention_window) {}

// ---------------------------------------------------------------------------
// Message steps
// ---------------------------------------------------------------------------

void OwnerCore::handle(const net::Message& msg) {
  MutexLock lk(mu_);
  if (auto resp = answer_held(msg.payload)) return comm_.reply(msg, std::move(*resp));
  if (std::holds_alternative<net::ObjectRequest>(msg.payload)) return on_object_request(msg);
  if (std::holds_alternative<net::CommitRequest>(msg.payload)) return on_commit(msg);
  if (std::holds_alternative<net::AbortUnlock>(msg.payload)) return on_abort_unlock(msg);
  if (std::holds_alternative<net::NotInterested>(msg.payload)) return on_not_interested(msg);
  if (std::holds_alternative<net::GrantAck>(msg.payload)) return on_grant_ack(msg);
  HYFLOW_WARN("unhandled request payload: ", net::payload_name(msg.payload));
}

bool OwnerCore::take_reply(const net::Message& reply) {
  MutexLock lk(mu_);
  if (unanswered_.erase(reply.reply_to) == 0) {
    // Only a granted object needs the NotInterested protocol: the
    // requester's backoff expired before the hand-off arrived (Alg. 4
    // else-branch).
    if (const auto* resp = std::get_if<net::ObjectResponse>(&reply.payload);
        resp && resp->object)
      comm_.post(reply.from, net::NotInterested{resp->oid, resp->txid});
    return false;
  }
  if (const auto* resp = std::get_if<net::CommitResponse>(&reply.payload)) {
    // Alg. 4: the node invoking the committed transaction receives the
    // requester lists.
    scheduler_.absorb_queue(resp->oid, resp->queue);
    serve_waiters(resp->oid);
  }
  return true;
}

void OwnerCore::sweep(SimTime now) {
  MutexLock lk(mu_);
  // A request lost for good would strand state at its destination: a held
  // lock, or the old owner's locked copy and its parked requesters. Every
  // fault window closes, so the sweep resends until the answer lands. The
  // receiver's reply cache answers a resend with the first copy's reply, so
  // a resent CommitRequest gets the queue captured at the real hand-over.
  for (auto& [id, u] : unanswered_) {
    if (u.deadline > now) continue;
    ++u.attempt;
    comm_.resend(u.to, id, u.attempt, u.req);
    u.deadline = now + comm_.retry_policy().timeout_for(static_cast<int>(u.attempt), id);
  }

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

std::optional<net::Payload> OwnerCore::answer_held(const net::Payload& request) {
  if (const auto* req = std::get_if<net::FindOwnerRequest>(&request)) {
    const auto owner = directory_.lookup(req->oid);
    return net::FindOwnerResponse{req->oid, owner.value_or(kInvalidNode), owner.has_value()};
  }
  if (const auto* req = std::get_if<net::RegisterOwnerRequest>(&request))
    return net::RegisterOwnerResponse{
        req->oid, directory_.register_owner(req->oid, req->new_owner, req->version_clock)};
  if (const auto* req = std::get_if<net::LockRequest>(&request))
    return net::LockResponse{req->oid, store_.lock(req->oid, req->txid, req->expected_clock)};
  if (const auto* req = std::get_if<net::ValidateRequest>(&request))
    return net::ValidateResponse{req->oid, store_.validate(req->oid, req->expected_clock)};
  return std::nullopt;
}

void OwnerCore::on_object_request(const net::Message& msg) {
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

void OwnerCore::on_commit(const net::Message& msg) {
  const auto& req = std::get<net::CommitRequest>(msg.payload);
  net::CommitResponse resp;
  resp.oid = req.oid;
  // A resend that outlived the reply cache runs this step again. If this
  // node has since taken the object back, its copy carries a clock at or
  // past the hand-off's (versions only grow): it stays, with its queue.
  if (const auto slot = store_.get(req.oid);
      slot && slot->version.clock >= req.new_version.clock) {
    comm_.reply(msg, resp);
    return;
  }
  if (const auto view = store_.evict(req.oid, req.txid); view && view->locked_by.valid())
    record_hold(view->locked_at);
  // Hand the scheduling queue over to the new owner.
  resp.queue = scheduler_.extract_queue(req.oid);
  contention_.forget(req.oid);
  hints_[req.oid] = req.new_owner;
  comm_.reply(msg, resp);
}

void OwnerCore::on_abort_unlock(const net::Message& msg) {
  const auto& req = std::get<net::AbortUnlock>(msg.payload);
  // Acknowledge so the releaser drops the request from its resend table
  // (the reply to a one-way post is dropped as an uninteresting orphan).
  comm_.reply(msg, net::Ack{req.oid});
  release_and_serve(req.oid, req.txid);
}

void OwnerCore::on_not_interested(const net::Message& msg) {
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
  const auto next = hints_.find(req.oid);
  if (next == hints_.end() || next->second == comm_.self() ||
      req.hops + 1 >= comm_.cluster_size())
    return;
  net::NotInterested forward = req;
  forward.hops += 1;
  comm_.post(next->second, forward);
}

void OwnerCore::on_grant_ack(const net::Message& msg) {
  const auto& req = std::get<net::GrantAck>(msg.payload);
  grants_.erase({req.oid.value, req.txid.value});
}

// ---------------------------------------------------------------------------
// The requester path's local steps
// ---------------------------------------------------------------------------

std::optional<NodeId> OwnerCore::known_owner(ObjectId oid) {
  MutexLock lk(mu_);
  if (store_.owns(oid)) return comm_.self();
  const auto it = hints_.find(oid);
  if (it == hints_.end()) return std::nullopt;
  return it->second;
}

void OwnerCore::note_owner(ObjectId oid, NodeId owner) {
  MutexLock lk(mu_);
  hints_[oid] = owner;
}

void OwnerCore::forget_owner(ObjectId oid) {
  MutexLock lk(mu_);
  hints_.erase(oid);
}

net::Payload OwnerCore::answer(const net::Payload& request) {
  MutexLock lk(mu_);
  auto resp = answer_held(request);
  HYFLOW_ASSERT_MSG(resp.has_value(), "answer() of a request that is not answered at once");
  return std::move(*resp);
}

void OwnerCore::release(ObjectId oid, TxnId txid, NodeId owner) {
  MutexLock lk(mu_);
  if (owner == comm_.self()) return release_and_serve(oid, txid);
  send_recorded(owner, net::AbortUnlock{oid, txid});
}

void OwnerCore::commit_in_place(ObjectId oid, TxnId txid, ObjectSnapshot object,
                                Version version) {
  MutexLock lk(mu_);
  if (auto slot = store_.get(oid); slot && slot->locked_by == txid)
    record_hold(slot->locked_at);
  const bool ok = store_.commit_in_place(oid, txid, std::move(object), version);
  HYFLOW_ASSERT_MSG(ok, "commit_in_place on a lock we hold must succeed");
  serve_waiters(oid);
}

void OwnerCore::install(ObjectSnapshot object, Version version) {
  MutexLock lk(mu_);
  store_.install(std::move(object), version);
}

void OwnerCore::commit_handoff(NodeId old_owner, TxnId txid, ObjectSnapshot object,
                               Version version) {
  MutexLock lk(mu_);
  net::CommitRequest req;
  req.oid = object->id();
  req.txid = txid;
  req.new_version = version;
  req.new_owner = comm_.self();
  // Install first: the directory already points here, so the new copy must
  // be servable before the old owner's slot goes away.
  store_.install(std::move(object), version);
  send_recorded(old_owner, req);
}

// ---------------------------------------------------------------------------
// Placement and audits
// ---------------------------------------------------------------------------

void OwnerCore::publish(ObjectId oid, NodeId owner) {
  MutexLock lk(mu_);
  directory_.publish(oid, owner);
}

std::optional<NodeId> OwnerCore::directory_lookup(ObjectId oid) {
  MutexLock lk(mu_);
  return directory_.lookup(oid);
}

ObjectSnapshot OwnerCore::owned_copy(ObjectId oid) {
  MutexLock lk(mu_);
  const auto slot = store_.get(oid);
  return slot ? slot->object : nullptr;
}

std::size_t OwnerCore::owned_objects() {
  MutexLock lk(mu_);
  return store_.size();
}

std::size_t OwnerCore::queued_requesters() {
  MutexLock lk(mu_);
  return scheduler_.total_queued();
}

std::size_t OwnerCore::locked_slots() {
  MutexLock lk(mu_);
  std::size_t locked = 0;
  for (const ObjectId oid : store_.owned_ids())
    if (store_.get(oid)->locked_by.valid()) ++locked;
  return locked;
}

std::size_t OwnerCore::unanswered_requests() {
  MutexLock lk(mu_);
  return unanswered_.size();
}

// ---------------------------------------------------------------------------
// Helpers (owner mutex held)
// ---------------------------------------------------------------------------

void OwnerCore::release_and_serve(ObjectId oid, TxnId txid) {
  if (auto slot = store_.get(oid); slot && slot->locked_by == txid)
    record_hold(slot->locked_at);
  store_.unlock(oid, txid);
  // "If Tk aborts, the objects that Tk is using will be released, and the
  // other transactions will obtain the objects." (§III-A)
  serve_waiters(oid);
}

void OwnerCore::send_recorded(NodeId to, net::Payload req) {
  // The answer needs this mutex, so it cannot overtake the record.
  const std::uint64_t id = comm_.send_request(to, req);
  const SimTime deadline = sim_now() + comm_.retry_policy().timeout_for(0, id);
  unanswered_[id] = Unanswered{to, std::move(req), 0, deadline};
}

void OwnerCore::serve_waiters(ObjectId oid) {
  const auto slot = store_.get(oid);
  if (!slot || slot->locked_by.valid()) return;
  const auto group = scheduler_.on_object_available(oid);
  if (group.empty()) return;
  metrics_.add(Counter::handoffs_sent, group.size());
  for (const auto& q : group) send_grant(q, oid, slot->object, slot->version);
}

void OwnerCore::send_grant(const net::QueuedRequester& to, ObjectId oid,
                           const ObjectSnapshot& obj, Version version) {
  net::ObjectResponse resp;
  resp.oid = oid;
  resp.txid = to.txid;
  resp.object = obj;
  resp.version = version;
  resp.owner_cl = contention_.local_cl(oid, sim_now());
  resp.handoff = true;  // requester must GrantAck or the grant is re-served
  grants_[{oid.value, to.txid.value}] = PendingGrant{oid, to, sim_now() + grant_ack_timeout_};
  comm_.reply_routed(to.address, to.reply_msg_id, resp);
}

void OwnerCore::record_hold(SimTime locked_at) {
  if (locked_at <= 0) return;
  const SimDuration held = sim_now() - locked_at;
  if (held <= 0) return;
  hold_ewma_.add(static_cast<double>(held));
}

SimDuration OwnerCore::validator_remaining(const dsm::SlotView& slot, SimTime now) const {
  const SimDuration expected_hold = hold_ewma_.seeded()
                                        ? static_cast<SimDuration>(hold_ewma_.value())
                                        : default_validation_hold_;
  const SimDuration held_so_far = slot.locked_at > 0 ? now - slot.locked_at : 0;
  return std::max<SimDuration>(expected_hold - held_so_far, sim_us(100));
}

}  // namespace hyflow::tfa
