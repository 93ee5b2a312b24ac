// OwnerCore without a network: a recording net::Comm captures every message
// an owner step sends, so each test checks exactly what one step put on the
// wire — the grant of a free object, the RTS park and the Alg. 4 hand-off,
// grant-loss recovery, the resend table (the committer's hand-offs and
// remote lock releases) and its resends, withdrawal forwarding, a re-executed
// hand-off, the decline of an orphan grant, the directory's answers and the
// lock verdict.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "tfa/owner_core.hpp"
#include "tfa/tfa_runtime.hpp"

namespace hyflow {
namespace {

using tfa::TfaConfig;

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

// One message an owner step sent.
struct Sent {
  enum class Kind { kReply, kRoutedReply, kPost, kRequest, kResend };
  Kind kind;
  NodeId to;
  std::uint64_t reply_to;  // msg_id of the answered request; 0 otherwise
  net::Payload payload;
  std::uint64_t msg_id = 0;   // a request's or resend's own id
  std::uint32_t attempt = 0;  // a resend's ordinal
};

// A net::Comm that records instead of sending. Owner steps never wait for a
// reply, so a request that opens a pending call fails the test.
class RecordingComm final : public net::Comm {
 public:
  RecordingComm(NodeId self, std::uint32_t size) : self_(self), size_(size) {}

  NodeId self() const override { return self_; }
  std::uint32_t cluster_size() const override { return size_; }
  net::RequestCall request(NodeId to, net::Payload payload) override {
    ADD_FAILURE() << "an owner step sent a request";
    const std::uint64_t id = ++last_id_;
    return net::RequestCall(&pending_, pending_.open(id), id, to, std::move(payload));
  }
  std::uint64_t send_request(NodeId to, net::Payload payload) override {
    const std::uint64_t id = ++last_id_;
    sent_.push_back({Sent::Kind::kRequest, to, 0, std::move(payload), id});
    return id;
  }
  void post(NodeId to, net::Payload payload) override {
    sent_.push_back({Sent::Kind::kPost, to, 0, std::move(payload)});
  }
  void reply(const net::Message& request, net::Payload payload) override {
    sent_.push_back({Sent::Kind::kReply, request.from, request.msg_id, std::move(payload)});
  }
  void reply_routed(NodeId to, std::uint64_t reply_to, net::Payload payload) override {
    sent_.push_back({Sent::Kind::kRoutedReply, to, reply_to, std::move(payload)});
  }
  void resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
              net::Payload payload) override {
    sent_.push_back({Sent::Kind::kResend, to, 0, std::move(payload), msg_id, attempt});
  }
  const net::RetryPolicy& retry_policy() const override { return policy_; }

  // Everything sent since the last call.
  std::vector<Sent> take() { return std::exchange(sent_, {}); }

 private:
  NodeId self_;
  std::uint32_t size_;
  net::RetryPolicy policy_;
  net::PendingCalls pending_;
  std::uint64_t last_id_ = 0;
  std::vector<Sent> sent_;
};

constexpr ObjectId kOid{42};
constexpr Version kVersion{3, 0};

// Node 0 of a 3-node cluster, running the rts row. (The fixture takes the
// class's name so the suite reads OwnerCore.*.)
struct OwnerCore : ::testing::Test {
  OwnerCore() : owner(TfaConfig{}, core::SchedulerConfig{}, comm, metrics) {
    owner.install(copy, kVersion);
  }

  static net::Message request(NodeId from, std::uint64_t msg_id, net::Payload payload) {
    net::Message m;
    m.from = from;
    m.to = 0;
    m.msg_id = msg_id;
    m.payload = std::move(payload);
    return m;
  }

  // A write request from a transaction that has run for a second: long
  // enough for RTS to park it behind a validating commit.
  static net::ObjectRequest object_request(TxnId txid) {
    net::ObjectRequest req;
    req.oid = kOid;
    req.txid = txid;
    req.mode = net::AccessMode::kWrite;
    const SimTime now = sim_now();
    req.ets = net::Ets{now - sim_ms(1000), now, now + sim_ms(1)};
    return req;
  }

  static const net::ObjectResponse& object_response(const Sent& s) {
    return std::get<net::ObjectResponse>(s.payload);
  }

  // `txid`'s commit lock on the object, taken in place as node 0's own
  // commit takes it.
  dsm::ObjectStore::LockResult lock(TxnId txid, std::uint64_t expected_clock) {
    const auto answer = owner.answer(net::LockRequest{kOid, txid, expected_clock});
    return std::get<net::LockResponse>(answer).result;
  }

  // Locks the object for `committer` and parks one waiter from each of
  // nodes 1 and 2 (request ids 11 and 12); checks both park replies.
  void park_two_waiters() {
    ASSERT_EQ(lock(committer, kVersion.clock), dsm::ObjectStore::LockResult::kGranted);
    owner.handle(request(1, 11, object_request(first)));
    owner.handle(request(2, 12, object_request(second)));
    const auto sent = comm.take();
    ASSERT_EQ(sent.size(), 2u);
    for (const Sent& s : sent) {
      EXPECT_EQ(s.kind, Sent::Kind::kReply);
      EXPECT_TRUE(object_response(s).enqueued);
      EXPECT_EQ(object_response(s).object, nullptr);
    }
  }

  // The hand-off of the object to the waiter behind request `reply_to`.
  void expect_handoff(const Sent& s, NodeId to, std::uint64_t reply_to, TxnId txid) {
    EXPECT_EQ(s.kind, Sent::Kind::kRoutedReply);
    EXPECT_EQ(s.to, to);
    EXPECT_EQ(s.reply_to, reply_to);
    const auto& grant = object_response(s);
    EXPECT_EQ(grant.txid, txid);
    EXPECT_EQ(grant.object, copy);
    EXPECT_EQ(grant.version, kVersion);
    EXPECT_TRUE(grant.handoff);
  }

  RecordingComm comm{0, 3};
  runtime::NodeMetrics metrics;
  tfa::OwnerCore owner;
  const ObjectSnapshot copy = std::make_shared<Box>(kOid, 7);
  const TxnId committer = TxnId::make(0, 1);
  const TxnId first = TxnId::make(1, 1);
  const TxnId second = TxnId::make(2, 1);
};

TEST_F(OwnerCore, FreeObjectIsGrantedWithItsCopy) {
  owner.handle(request(2, 11, object_request(second)));
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kReply);
  EXPECT_EQ(sent[0].to, 2u);
  EXPECT_EQ(sent[0].reply_to, 11u);
  const auto& resp = object_response(sent[0]);
  EXPECT_EQ(resp.txid, second);
  EXPECT_EQ(resp.object, copy);
  EXPECT_EQ(resp.version, kVersion);
  EXPECT_EQ(resp.owner_cl, 1u);
  EXPECT_FALSE(resp.enqueued);
  EXPECT_FALSE(resp.handoff);
  EXPECT_FALSE(resp.wrong_owner);
}

TEST_F(OwnerCore, RtsParksOnALockedObjectAndReleaseHandsItOff) {
  ASSERT_EQ(lock(committer, kVersion.clock), dsm::ObjectStore::LockResult::kGranted);
  EXPECT_TRUE(comm.take().empty());
  owner.handle(request(2, 12, object_request(second)));
  auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kReply);
  EXPECT_EQ(sent[0].to, 2u);
  EXPECT_EQ(sent[0].reply_to, 12u);
  EXPECT_TRUE(object_response(sent[0]).enqueued);
  EXPECT_GT(object_response(sent[0]).backoff, 0);
  EXPECT_EQ(object_response(sent[0]).object, nullptr);

  // The commit aborts and releases its lock: the parked request is answered
  // by a routed grant.
  owner.release(kOid, committer, /*owner=*/0);
  sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  expect_handoff(sent[0], 2, 12, second);
  const auto counted = metrics.snapshot();
  EXPECT_EQ(counted.conflicts_seen, 1u);
  EXPECT_EQ(counted.handoffs_sent, 1u);
}

TEST_F(OwnerCore, AbortUnlockAcksThenHandsOff) {
  // The handler twin of release(): the same step, plus the Ack.
  ASSERT_NO_FATAL_FAILURE(park_two_waiters());
  owner.handle(request(1, 13, net::AbortUnlock{kOid, committer}));
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kReply);
  EXPECT_EQ(sent[0].reply_to, 13u);
  EXPECT_TRUE(std::holds_alternative<net::Ack>(sent[0].payload));
  expect_handoff(sent[1], 1, 11, first);
}

TEST_F(OwnerCore, SweepLeavesAnAcknowledgedGrant) {
  ASSERT_NO_FATAL_FAILURE(park_two_waiters());
  owner.release(kOid, committer, /*owner=*/0);
  auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  expect_handoff(sent[0], 1, 11, first);

  owner.handle(request(1, 0, net::GrantAck{kOid, first}));
  owner.sweep(sim_now() + sim_ms(1000));
  EXPECT_TRUE(comm.take().empty());
  EXPECT_EQ(metrics.snapshot().grant_reforwards, 0u);
}

TEST_F(OwnerCore, SweepReservesAnUnacknowledgedGrant) {
  ASSERT_NO_FATAL_FAILURE(park_two_waiters());
  owner.release(kOid, committer, /*owner=*/0);
  ASSERT_EQ(comm.take().size(), 1u);

  // No GrantAck before the deadline: the grant is presumed lost and the
  // object goes to the next waiter.
  owner.sweep(sim_now() + sim_ms(1000));
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  expect_handoff(sent[0], 2, 12, second);
  EXPECT_EQ(metrics.snapshot().grant_reforwards, 1u);
}

TEST_F(OwnerCore, WithdrawalAtANonOwnerFollowsTheHintUpToTheHopBound) {
  // Node 0 handed the object to node 1 and no longer owns it.
  owner.handle(request(1, 11, net::CommitRequest{kOid, committer, Version{4, 1}, 1}));
  ASSERT_EQ(comm.take().size(), 1u);  // the hand-off reply
  ASSERT_FALSE(owner.store().owns(kOid));

  owner.handle(request(2, 0, net::NotInterested{kOid, second, 0}));
  auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kPost);
  EXPECT_EQ(sent[0].to, 1u);
  const auto& forwarded = std::get<net::NotInterested>(sent[0].payload);
  EXPECT_EQ(forwarded.oid, kOid);
  EXPECT_EQ(forwarded.txid, second);
  EXPECT_EQ(forwarded.hops, 1u);

  // In a 3-node cluster a withdrawal is forwarded at most twice.
  owner.handle(request(2, 0, net::NotInterested{kOid, second, 2}));
  EXPECT_TRUE(comm.take().empty());
  EXPECT_EQ(metrics.snapshot().not_interested, 2u);
}

TEST_F(OwnerCore, ReexecutedHandoffLeavesANewerCopy) {
  // Node 0 handed the object on at clock 10 and has since taken it back at
  // clock 20. A resend of the old CommitRequest that outlived the reply
  // cache runs the step again: the newer copy and the hint stay, and the
  // reply hands over no queue.
  const ObjectSnapshot newer = std::make_shared<Box>(kOid, 9);
  owner.install(newer, Version{20, 0});
  const net::CommitRequest stale{kOid, first, Version{10, 1}, 1};
  const auto expect_left_alone = [&](std::uint64_t msg_id) {
    owner.handle(request(1, msg_id, stale));
    const auto sent = comm.take();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].kind, Sent::Kind::kReply);
    EXPECT_EQ(sent[0].reply_to, msg_id);
    EXPECT_TRUE(std::get<net::CommitResponse>(sent[0].payload).queue.empty());
    ASSERT_EQ(owner.owned_copy(kOid), newer);
    EXPECT_EQ(owner.store().get(kOid)->version, (Version{20, 0}));
    EXPECT_EQ(owner.known_owner(kOid), std::optional<NodeId>{0});
  };
  ASSERT_NO_FATAL_FAILURE(expect_left_alone(11));

  // While a newer commit holds the copy, the lock and the parked requester
  // stay too.
  ASSERT_EQ(lock(committer, 20), dsm::ObjectStore::LockResult::kGranted);
  owner.handle(request(2, 12, object_request(second)));
  ASSERT_EQ(comm.take().size(), 1u);  // the park reply
  ASSERT_NO_FATAL_FAILURE(expect_left_alone(13));
  EXPECT_EQ(owner.store().get(kOid)->locked_by, committer);
  EXPECT_EQ(owner.queued_requesters(), 1u);
}

TEST_F(OwnerCore, RemoteReleaseSendsOneAbortUnlock) {
  // The lock was taken at node 1: the release is a request to node 1, and
  // this node's own slot for the same object stays as it was.
  ASSERT_NO_FATAL_FAILURE(park_two_waiters());
  owner.release(kOid, committer, /*owner=*/1);
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kRequest);
  EXPECT_EQ(sent[0].to, 1u);
  const auto& unlock = std::get<net::AbortUnlock>(sent[0].payload);
  EXPECT_EQ(unlock.oid, kOid);
  EXPECT_EQ(unlock.txid, committer);
  EXPECT_EQ(owner.store().get(kOid)->locked_by, committer);
  EXPECT_EQ(owner.queued_requesters(), 2u);
  EXPECT_EQ(owner.unanswered_requests(), 1u);
}

// ---- the resend table ----

// Node 0 commits a write to an object that node 1 owned (the Alg. 4
// hand-off), or cleans up a failed commit of that object: it releases its
// lock at node 1.
struct OwnerCoreHandoff : OwnerCore {
  static constexpr ObjectId kMoved{43};
  static constexpr Version kCommitted{5, 0};

  // One kind of request the table holds: the step that sends it, where it
  // goes and what its destination answers.
  struct Entry {
    const char* request;  // the payload's name
    std::function<void()> send;
    NodeId to;
    net::Payload answer;
  };

  // A failed commit's clean-up: the release of its lock at node 1.
  std::vector<Entry> clean_ups() {
    return {
        {"AbortUnlock", [this] { owner.release(kMoved, committer, 1); }, 1, net::Ack{kMoved}},
    };
  }
  // The hand-off, whose answer returns a queue.
  Entry hand_off_entry() {
    return {"CommitRequest", [this] { owner.commit_handoff(1, committer, moved, kCommitted); },
            1, net::CommitResponse{kMoved, {parked(1, 11, first)}}};
  }
  // Every kind, the hand-off first.
  std::vector<Entry> entries() {
    std::vector<Entry> all = clean_ups();
    all.insert(all.begin(), hand_off_entry());
    return all;
  }

  static ObjectId oid_of(const net::Payload& p) {
    return std::visit([](const auto& m) { return m.oid; }, p);
  }

  // Runs the step of `e` and returns its request's msg_id.
  std::uint64_t send(const Entry& e) {
    e.send();
    const auto sent = comm.take();
    EXPECT_EQ(sent.size(), 1u);
    if (sent.empty()) return 0;
    EXPECT_EQ(sent[0].kind, Sent::Kind::kRequest);
    EXPECT_EQ(sent[0].to, e.to);
    EXPECT_STREQ(net::payload_name(sent[0].payload), e.request);
    return sent[0].msg_id;
  }
  std::uint64_t hand_off() { return send(hand_off_entry()); }

  // The answer of `e`'s destination to request `msg_id`.
  static net::Message answer(const Entry& e, std::uint64_t msg_id) {
    net::Message m;
    m.from = e.to;
    m.to = 0;
    m.reply_to = msg_id;
    m.payload = e.answer;
    return m;
  }

  // The old owner's reply to request `msg_id`, returning `queue`.
  static net::Message reply(std::uint64_t msg_id, std::vector<net::QueuedRequester> queue) {
    net::Message m;
    m.from = 1;
    m.to = 0;
    m.reply_to = msg_id;
    m.payload = net::CommitResponse{kMoved, std::move(queue)};
    return m;
  }

  static net::QueuedRequester parked(NodeId at, std::uint64_t reply_msg_id, TxnId txid) {
    net::QueuedRequester q;
    q.address = at;
    q.txid = txid;
    q.reply_msg_id = reply_msg_id;
    q.mode = net::AccessMode::kWrite;
    return q;
  }

  const ObjectSnapshot moved = std::make_shared<Box>(kMoved, 8);
};

TEST_F(OwnerCoreHandoff, InstallsTheCopyAndSendsOneCommitRequest) {
  owner.commit_handoff(/*old_owner=*/1, committer, moved, kCommitted);
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kRequest);
  EXPECT_EQ(sent[0].to, 1u);
  const auto& req = std::get<net::CommitRequest>(sent[0].payload);
  EXPECT_EQ(req.oid, kMoved);
  EXPECT_EQ(req.txid, committer);
  EXPECT_EQ(req.new_version, kCommitted);
  EXPECT_EQ(req.new_owner, 0u);
  EXPECT_EQ(owner.owned_copy(kMoved), moved);
  EXPECT_FALSE(owner.store().get(kMoved)->locked_by.valid());
  EXPECT_EQ(owner.unanswered_requests(), 1u);
}

TEST_F(OwnerCoreHandoff, SweepResendsAnOverdueRequestUnderItsId) {
  for (const Entry& e : entries()) {
    SCOPED_TRACE(e.request);
    const SimTime sent_at = sim_now();
    const std::uint64_t id = send(e);
    owner.sweep(sent_at);  // not overdue yet
    EXPECT_TRUE(comm.take().empty());

    owner.sweep(sent_at + sim_ms(1000));
    const auto sent = comm.take();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].kind, Sent::Kind::kResend);
    EXPECT_EQ(sent[0].to, e.to);
    EXPECT_EQ(sent[0].msg_id, id);
    EXPECT_EQ(sent[0].attempt, 1u);
    EXPECT_STREQ(net::payload_name(sent[0].payload), e.request);
    EXPECT_EQ(oid_of(sent[0].payload), kMoved);
    EXPECT_EQ(owner.unanswered_requests(), 1u);
    // Answered, so the next entry's sweep resends that entry alone.
    ASSERT_TRUE(owner.take_reply(answer(e, id)));
    comm.take();  // the grant of the hand-off's returned queue
  }
}

TEST_F(OwnerCoreHandoff, ReplyAbsorbsTheQueueAndGrantsItsHead) {
  const std::uint64_t id = hand_off();
  ASSERT_TRUE(owner.take_reply(reply(id, {parked(1, 11, first), parked(2, 12, second)})));
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kRoutedReply);
  EXPECT_EQ(sent[0].to, 1u);
  EXPECT_EQ(sent[0].reply_to, 11u);
  const auto& grant = object_response(sent[0]);
  EXPECT_EQ(grant.txid, first);
  EXPECT_EQ(grant.object, moved);
  EXPECT_EQ(grant.version, kCommitted);
  EXPECT_TRUE(grant.handoff);
  EXPECT_EQ(owner.queued_requesters(), 1u);  // the second waits its turn
  EXPECT_EQ(owner.unanswered_requests(), 0u);

  // The answer to a release only drops its record.
  for (const Entry& e : clean_ups()) {
    SCOPED_TRACE(e.request);
    ASSERT_TRUE(owner.take_reply(answer(e, send(e))));
    EXPECT_TRUE(comm.take().empty());
    EXPECT_EQ(owner.queued_requesters(), 1u);
    EXPECT_EQ(owner.unanswered_requests(), 0u);
  }
}

TEST_F(OwnerCoreHandoff, ReplayedReplySendsNothing) {
  const std::uint64_t id = hand_off();
  ASSERT_TRUE(owner.take_reply(reply(id, {parked(1, 11, first)})));
  ASSERT_EQ(comm.take().size(), 1u);
  ASSERT_EQ(owner.queued_requesters(), 0u);

  // A duplicate, or the replay a resend drew from the old owner's reply
  // cache, finds no record.
  EXPECT_FALSE(owner.take_reply(reply(id, {parked(1, 11, first)})));
  EXPECT_TRUE(comm.take().empty());
  EXPECT_EQ(owner.queued_requesters(), 0u);

  for (const Entry& e : clean_ups()) {
    SCOPED_TRACE(e.request);
    const net::Message answered = answer(e, send(e));
    ASSERT_TRUE(owner.take_reply(answered));
    EXPECT_FALSE(owner.take_reply(answered));
    EXPECT_TRUE(comm.take().empty());
    EXPECT_EQ(owner.unanswered_requests(), 0u);
  }
}

TEST_F(OwnerCoreHandoff, SweepResendsPastAnyBudgetUntilAnswered) {
  // Three times the retry budget and more: the sweep has none.
  const int resends = 3 * comm.retry_policy().max_retries + 10;
  for (const Entry& e : entries()) {
    SCOPED_TRACE(e.request);
    const std::uint64_t id = send(e);
    SimTime now = sim_now();
    for (int attempt = 1; attempt <= resends; ++attempt) {
      now += sim_ms(1000);
      owner.sweep(now);
      const auto sent = comm.take();
      ASSERT_EQ(sent.size(), 1u);
      EXPECT_EQ(sent[0].kind, Sent::Kind::kResend);
      EXPECT_EQ(sent[0].msg_id, id);
      EXPECT_EQ(sent[0].attempt, static_cast<std::uint32_t>(attempt));
      EXPECT_EQ(owner.unanswered_requests(), 1u);
    }
    // The answer drops the record, and the next sweep resends nothing.
    ASSERT_TRUE(owner.take_reply(answer(e, id)));
    comm.take();  // the grant of the hand-off's returned queue
    EXPECT_EQ(owner.unanswered_requests(), 0u);
    owner.sweep(now + sim_ms(1000));
    EXPECT_TRUE(comm.take().empty());
  }
}

TEST_F(OwnerCore, OrphanGrantIsDeclinedToItsSender) {
  // Node 2 granted the object to a call that had already ended: no record
  // matches, and the owner side declines the grant so node 2 serves its
  // next requester.
  net::Message grant;
  grant.from = 2;
  grant.to = 0;
  grant.reply_to = 77;
  net::ObjectResponse resp;
  resp.oid = kOid;
  resp.txid = first;
  resp.object = copy;
  resp.version = kVersion;
  resp.handoff = true;
  grant.payload = resp;
  EXPECT_FALSE(owner.take_reply(grant));
  auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kPost);
  EXPECT_EQ(sent[0].to, 2u);
  const auto& declined = std::get<net::NotInterested>(sent[0].payload);
  EXPECT_EQ(declined.oid, kOid);
  EXPECT_EQ(declined.txid, first);
  EXPECT_EQ(declined.hops, 0u);

  // An orphan that grants nothing, a late park notice, is dropped.
  resp.object = nullptr;
  resp.handoff = false;
  resp.enqueued = true;
  grant.payload = resp;
  EXPECT_FALSE(owner.take_reply(grant));
  EXPECT_TRUE(comm.take().empty());
}

TEST_F(OwnerCore, DirectoryAnswersInPlaceAndByReply) {
  constexpr ObjectId kHomed{44};
  owner.publish(kHomed, 2);
  const auto found =
      std::get<net::FindOwnerResponse>(owner.answer(net::FindOwnerRequest{kHomed}));
  EXPECT_TRUE(found.known);
  EXPECT_EQ(found.owner, 2u);
  // Node 0's own commit registers in place, and the handler's reply to a
  // lookup reads the same shard.
  EXPECT_TRUE(std::get<net::RegisterOwnerResponse>(
                  owner.answer(net::RegisterOwnerRequest{kHomed, 0, 5}))
                  .ok);
  EXPECT_TRUE(comm.take().empty());
  owner.handle(request(1, 11, net::FindOwnerRequest{kHomed}));
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kReply);
  EXPECT_EQ(sent[0].reply_to, 11u);
  EXPECT_EQ(std::get<net::FindOwnerResponse>(sent[0].payload).owner, 0u);
}

TEST_F(OwnerCore, StaleLockRequestReportsTheVersionMismatch) {
  owner.handle(request(1, 11, net::LockRequest{kOid, first, kVersion.clock - 1}));
  const auto sent = comm.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].kind, Sent::Kind::kReply);
  EXPECT_EQ(sent[0].reply_to, 11u);
  EXPECT_EQ(std::get<net::LockResponse>(sent[0].payload).result,
            dsm::ObjectStore::LockResult::kVersionMismatch);
  EXPECT_FALSE(owner.store().get(kOid)->locked_by.valid());
}

}  // namespace
}  // namespace hyflow
