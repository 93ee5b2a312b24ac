// The requester side of TFA's commit without a network: a scripted net::Comm
// answers each request and each resend at once from the test's script, or
// stays silent, and records everything node 0 sends, while a real OwnerCore
// answers node 0's own items in place. Each test pins the order, destination
// and payload of every message one root transaction sends through its commit
// rounds (lock the write set, validate the reads, register ownership, hand
// off) and how it aborts. The order pinned is the order of sends, not of
// concurrent arrivals.
//
// Node 0 of 4. The root writes object 9 (owned here, home node 0), 11 (at
// node 1, home 1) and 13 (at node 2, home 3), and it reads 12 (at node 2).
// Object 6 (at node 1, home node 0) is known to node 0's directory alone.
// The trees at the end read and write these objects in closed-nested
// children and pin which reads a child's round carries, which a read-only
// commit checks, and that a child's writes are checked by the root's locks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tfa/owner_core.hpp"
#include "tfa/tfa_runtime.hpp"

namespace hyflow {
namespace {

using dsm::ObjectStore;
using tfa::AbortCause;

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

constexpr ObjectId kHomedHere{6};
constexpr ObjectId kLocal{9};
constexpr ObjectId kAtOne{11};
constexpr ObjectId kRead{12};
constexpr ObjectId kAtTwo{13};
constexpr std::uint64_t kReadClock = 3;   // every copy's version clock
constexpr std::uint64_t kStartClock = 5;  // node 0's clock when the root starts
constexpr std::uint64_t kCommitClock = kStartClock + 1;

// One message node 0 sent.
struct Sent {
  enum class Kind { kRequest, kSendRequest, kResend, kPost };
  Kind kind;
  NodeId to;
  net::Payload payload;
};

// The reply to a request sent to `to`, or nullopt to stay silent.
using Script = std::function<std::optional<net::Payload>(NodeId to, const net::Payload&)>;

// A net::Comm whose peers answer at once from `script`. It retries after
// 1 ms, once, where a wait has a budget.
class ScriptedComm final : public net::Comm {
 public:
  ScriptedComm() {
    policy_.base_timeout = sim_ms(1);
    policy_.max_timeout = sim_ms(1);
    policy_.max_retries = 1;
  }

  NodeId self() const override { return 0; }
  std::uint32_t cluster_size() const override { return 4; }
  net::RequestCall request(NodeId to, net::Payload payload) override {
    const std::uint64_t id = ++last_id_;
    auto call = pending_.open(id);
    sent_.push_back({Sent::Kind::kRequest, to, payload});
    answer(to, id, payload);
    return net::RequestCall(&pending_, std::move(call), id, to, std::move(payload));
  }
  std::uint64_t send_request(NodeId to, net::Payload payload) override {
    sent_.push_back({Sent::Kind::kSendRequest, to, std::move(payload)});
    return ++last_id_;
  }
  void post(NodeId to, net::Payload payload) override {
    sent_.push_back({Sent::Kind::kPost, to, std::move(payload)});
  }
  void reply(const net::Message&, net::Payload) override {
    ADD_FAILURE() << "the requester side replied to a request";
  }
  void reply_routed(NodeId, std::uint64_t, net::Payload) override {
    ADD_FAILURE() << "the requester side routed a reply";
  }
  void resend(NodeId to, std::uint64_t msg_id, std::uint32_t, net::Payload payload) override {
    sent_.push_back({Sent::Kind::kResend, to, payload});
    answer(to, msg_id, payload);
  }
  const net::RetryPolicy& retry_policy() const override { return policy_; }

  // Everything sent so far, one message per word: kind prefix, payload with
  // its key fields, and destination, e.g. `Lock(11@3)>1`.
  std::string trace() const {
    std::string out;
    for (const Sent& s : sent_) {
      if (!out.empty()) out += ' ';
      if (s.kind == Sent::Kind::kSendRequest) out += "async ";
      if (s.kind == Sent::Kind::kResend) out += "resend ";
      if (s.kind == Sent::Kind::kPost) out += "post ";
      out += describe(s.payload) + ">" + std::to_string(s.to);
    }
    return out;
  }

  Script script;

 private:
  // Delivers the script's answer, if any, to the call of request `msg_id`.
  void answer(NodeId to, std::uint64_t msg_id, const net::Payload& payload) {
    if (auto scripted = script(to, payload)) {
      net::Message reply;
      reply.from = to;
      reply.to = 0;
      reply.reply_to = msg_id;
      reply.payload = std::move(*scripted);
      pending_.deliver(std::move(reply));
    }
  }

  static std::string describe(const net::Payload& p) {
    const auto n = [](std::uint64_t v) { return std::to_string(v); };
    if (const auto* r = std::get_if<net::ObjectRequest>(&p))
      return "Object(" + n(r->oid.value) + ")";
    if (const auto* r = std::get_if<net::LockRequest>(&p))
      return "Lock(" + n(r->oid.value) + "@" + n(r->expected_clock) + ")";
    if (const auto* r = std::get_if<net::ValidateRequest>(&p))
      return "Validate(" + n(r->oid.value) + "@" + n(r->expected_clock) + ")";
    if (const auto* r = std::get_if<net::RegisterOwnerRequest>(&p))
      return "Register(" + n(r->oid.value) + ":" + n(r->new_owner) + "@" +
             n(r->version_clock) + ")";
    if (const auto* r = std::get_if<net::FindOwnerRequest>(&p))
      return "FindOwner(" + n(r->oid.value) + ")";
    if (const auto* r = std::get_if<net::AbortUnlock>(&p))
      return "AbortUnlock(" + n(r->oid.value) + ")";
    if (const auto* r = std::get_if<net::CommitRequest>(&p))
      return "Commit(" + n(r->oid.value) + "@" + n(r->new_version.clock) + ":" +
             n(r->new_version.writer) + ")";
    return net::payload_name(p);
  }

  net::RetryPolicy policy_;
  net::PendingCalls pending_;
  std::uint64_t last_id_ = 0;
  std::vector<Sent> sent_;
};

// Every peer's answer when nothing goes wrong: copies at clock 3, granted
// locks, valid reads, accepted registrations, and object 11 found at node 3.
std::optional<net::Payload> healthy(NodeId to, const net::Payload& p) {
  if (const auto* r = std::get_if<net::ObjectRequest>(&p)) {
    net::ObjectResponse resp;
    resp.oid = r->oid;
    resp.txid = r->txid;
    resp.object = std::make_shared<Box>(r->oid);
    resp.version = Version{kReadClock, to};
    return resp;
  }
  if (const auto* r = std::get_if<net::LockRequest>(&p))
    return net::LockResponse{r->oid, ObjectStore::LockResult::kGranted};
  if (const auto* r = std::get_if<net::ValidateRequest>(&p))
    return net::ValidateResponse{r->oid, ObjectStore::ValidateResult::kValid};
  if (const auto* r = std::get_if<net::RegisterOwnerRequest>(&p))
    return net::RegisterOwnerResponse{r->oid, true};
  if (const auto* r = std::get_if<net::FindOwnerRequest>(&p))
    return net::FindOwnerResponse{r->oid, 3, true};
  if (const auto* r = std::get_if<net::AbortUnlock>(&p)) return net::Ack{r->oid};
  ADD_FAILURE() << "unscripted request " << net::payload_name(p);
  return std::nullopt;
}

struct CommitRound : ::testing::Test {
  CommitRound()
      : owner(tfa::TfaConfig{}, core::SchedulerConfig{}, comm, metrics),
        rt(tfa::TfaConfig{}, comm, owner, stats, clock, metrics) {
    comm.script = healthy;
    owner.install(std::make_shared<Box>(kLocal), Version{kReadClock, 0});
    owner.publish(kHomedHere, 1);
    owner.note_owner(kAtOne, 1);
    owner.note_owner(kRead, 2);
    owner.note_owner(kAtTwo, 2);
    clock.advance_to(kStartClock);
  }

  // One attempt of a root running `body`.
  tfa::RunResult run_once(const std::function<void(tfa::Txn&)>& body) {
    return rt.run(1, body, [attempts = 0]() mutable { return attempts++ == 0; });
  }

  // One attempt of the root: write 9, 11 and 13, read 12.
  tfa::RunResult run_root_once() {
    return run_once([](tfa::Txn& tx) {
      tx.write<Box>(kLocal).value += 1;
      tx.write<Box>(kAtOne).value += 1;
      tx.write<Box>(kAtTwo).value += 1;
      (void)tx.read<Box>(kRead);
    });
  }

  // A closed-nested child that reads 11 (at node 1) and 12 (at node 2).
  static void read_at_one_and_two(tfa::Txn& tx) {
    tx.nested([](tfa::Txn& child) {
      (void)child.read<Box>(kAtOne);
      (void)child.read<Box>(kRead);
    });
  }

  std::uint64_t root_aborts(AbortCause cause) const {
    return metrics.snapshot().aborts_root[static_cast<std::size_t>(cause)];
  }

  bool locally_locked() {
    const auto slot = owner.store().get(kLocal);
    return slot && slot->locked_by.valid();
  }

  // The opens of run_root_once, before the commit.
  static constexpr const char* kOpens = "Object(9)>0 Object(11)>1 Object(13)>2 Object(12)>2";
  // The fetches and the round of read_at_one_and_two's child.
  static constexpr const char* kFirstChild =
      "Object(11)>1 Object(12)>2 Validate(12@3)>2 Validate(11@3)>1";

  ScriptedComm comm;
  runtime::NodeMetrics metrics;
  tfa::StatsTable stats;
  tfa::NodeClock clock;
  tfa::OwnerCore owner;
  tfa::TfaRuntime rt;
};

TEST_F(CommitRound, CleanCommitSendsEachRoundTogether) {
  const auto res = run_root_once();
  EXPECT_TRUE(res.committed);
  EXPECT_EQ(res.attempts, 1u);
  // Node 0 answers its own lock and its own registration in place: neither
  // is a message.
  EXPECT_EQ(comm.trace(), std::string(kOpens) +
                              " Lock(11@3)>1 Lock(13@3)>2"
                              " Validate(12@3)>2"
                              " Register(11:0@6)>1 Register(13:0@6)>3"
                              " async Commit(11@6:0)>1 async Commit(13@6:0)>2");
  EXPECT_EQ(clock.read(), kCommitClock);
  EXPECT_FALSE(locally_locked());
  EXPECT_EQ(owner.store().get(kLocal)->version, (Version{kCommitClock, 0}));
  EXPECT_EQ(owner.unanswered_requests(), 2u);
  EXPECT_EQ(metrics.snapshot().commits_write, 1u);
}

TEST_F(CommitRound, CleanCommitRegistersAtItsOwnDirectoryInPlace) {
  ASSERT_TRUE(run_root_once().committed);
  EXPECT_EQ(owner.directory_lookup(kLocal), std::optional<NodeId>{0});
}

TEST_F(CommitRound, LookupAtItsOwnHomeNodeSendsNothing) {
  // Node 0 holds no hint for 6 and is its home node: its own directory
  // names node 1, and the fetch goes there.
  const auto res = run_once([](tfa::Txn& tx) { (void)tx.read<Box>(kHomedHere); });
  EXPECT_TRUE(res.committed);
  EXPECT_EQ(comm.trace(), "Object(6)>1");
}

TEST_F(CommitRound, BusyLockReleasesTheGrantedLocks) {
  comm.script = [](NodeId to, const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::LockRequest>(&p); r && to == 1)
      return net::LockResponse{r->oid, ObjectStore::LockResult::kBusy};
    return healthy(to, p);
  };
  const auto res = run_root_once();
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(root_aborts(AbortCause::kLockConflict), 1u);
  // Node 2 granted its lock, so it alone gets an AbortUnlock; node 0's lock
  // is released in place.
  EXPECT_EQ(comm.trace(),
            std::string(kOpens) + " Lock(11@3)>1 Lock(13@3)>2 async AbortUnlock(13)>2");
  EXPECT_FALSE(locally_locked());
}

TEST_F(CommitRound, StaleReadReleasesEveryLockAndRegistersNothing) {
  comm.script = [](NodeId to, const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::ValidateRequest>(&p))
      return net::ValidateResponse{r->oid, ObjectStore::ValidateResult::kInvalid};
    return healthy(to, p);
  };
  const auto res = run_root_once();
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(root_aborts(AbortCause::kEarlyValidation), 1u);
  EXPECT_EQ(comm.trace(), std::string(kOpens) +
                              " Lock(11@3)>1 Lock(13@3)>2 Validate(12@3)>2"
                              " async AbortUnlock(11)>1 async AbortUnlock(13)>2");
  EXPECT_FALSE(locally_locked());
}

TEST_F(CommitRound, NotOwnerLockReplyAbortsAsEarlyValidation) {
  comm.script = [](NodeId to, const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::LockRequest>(&p); r && to == 1)
      return net::LockResponse{r->oid, ObjectStore::LockResult::kNotOwner};
    return healthy(to, p);
  };
  const auto res = run_root_once();
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(root_aborts(AbortCause::kEarlyValidation), 1u);
  // Only a commit moves an object, and it installs a larger clock, so the
  // copy read is stale: no directory trip, no second pass. Node 2 granted
  // its lock, so it alone gets an AbortUnlock.
  EXPECT_EQ(comm.trace(),
            std::string(kOpens) + " Lock(11@3)>1 Lock(13@3)>2 async AbortUnlock(13)>2");
  EXPECT_EQ(metrics.snapshot().wrong_owner_retries, 0u);
  EXPECT_FALSE(locally_locked());
}

TEST_F(CommitRound, NotOwnerValidateReplyAbortsAsEarlyValidation) {
  comm.script = [](NodeId to, const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::ValidateRequest>(&p))
      return net::ValidateResponse{r->oid, ObjectStore::ValidateResult::kNotOwner};
    return healthy(to, p);
  };
  const auto res = run_root_once();
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(root_aborts(AbortCause::kEarlyValidation), 1u);
  EXPECT_EQ(comm.trace(), std::string(kOpens) +
                              " Lock(11@3)>1 Lock(13@3)>2 Validate(12@3)>2"
                              " async AbortUnlock(11)>1 async AbortUnlock(13)>2");
  EXPECT_FALSE(locally_locked());
}

TEST_F(CommitRound, SilentLockIsReleasedToo) {
  // Node 1 never answers a lock request. Its lock may have been taken with
  // only the answers lost, so it is released with the granted one.
  comm.script = [](NodeId to, const net::Payload& p) -> std::optional<net::Payload> {
    if (std::holds_alternative<net::LockRequest>(p) && to == 1) return std::nullopt;
    return healthy(to, p);
  };
  const auto res = run_root_once();
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(root_aborts(AbortCause::kWatchdog), 1u);
  EXPECT_EQ(comm.trace(), std::string(kOpens) +
                              " Lock(11@3)>1 Lock(13@3)>2 resend Lock(11@3)>1"
                              " async AbortUnlock(11)>1 async AbortUnlock(13)>2");
  EXPECT_FALSE(locally_locked());
}

TEST_F(CommitRound, SilentRegistrationIsResentUntilAnswered) {
  // Home node 3 leaves its registration of 13 unanswered for 8 sends, far
  // past the one resend that every budgeted wait gets, and answers the
  // ninth.
  int sends_to_three = 0;
  comm.script = [&sends_to_three](NodeId to,
                                  const net::Payload& p) -> std::optional<net::Payload> {
    if (std::holds_alternative<net::RegisterOwnerRequest>(p) && to == 3 &&
        ++sends_to_three <= 8)
      return std::nullopt;
    return healthy(to, p);
  };
  const auto res = run_root_once();
  EXPECT_TRUE(res.committed);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_EQ(metrics.snapshot().watchdog_aborts, 0u);
  // Registration has no budget: it resends until the answer lands, then the
  // commit goes on as a clean one does.
  std::string resends;
  for (int i = 0; i < 8; ++i) resends += " resend Register(13:0@6)>3";
  EXPECT_EQ(comm.trace(), std::string(kOpens) +
                              " Lock(11@3)>1 Lock(13@3)>2 Validate(12@3)>2"
                              " Register(11:0@6)>1 Register(13:0@6)>3" +
                              resends + " async Commit(11@6:0)>1 async Commit(13@6:0)>2");
  EXPECT_FALSE(locally_locked());
  EXPECT_EQ(owner.store().get(kLocal)->version, (Version{kCommitClock, 0}));
}

TEST_F(CommitRound, StaleReadInAClosedNestedChildRetriesTheChildAlone) {
  int validations = 0;
  comm.script = [&validations](NodeId to,
                               const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::ValidateRequest>(&p); r && ++validations == 1)
      return net::ValidateResponse{r->oid, ObjectStore::ValidateResult::kInvalid};
    return healthy(to, p);
  };
  const auto res = rt.run(1, [](tfa::Txn& tx) {
    tx.nested([](tfa::Txn& child) { (void)child.read<Box>(kRead); });
  });
  EXPECT_TRUE(res.committed);
  EXPECT_EQ(res.attempts, 1u);
  // A read-only root with one fetched object needs no commit validation.
  EXPECT_EQ(comm.trace(), "Object(12)>2 Validate(12@3)>2 Object(12)>2 Validate(12@3)>2");
  const auto counted = metrics.snapshot();
  EXPECT_EQ(counted.nested_aborts_own_cause, 1u);
  EXPECT_EQ(counted.nested_aborts_parent_cause, 0u);
  EXPECT_EQ(counted.nested_commits, 1u);
  EXPECT_EQ(counted.aborts_total(), 0u);
}

// ---- read-only commits reuse the children's rounds ----

TEST_F(CommitRound, ReadOnlyRootReusesItsOnlyChildsRound) {
  const auto res = run_once(read_at_one_and_two);
  EXPECT_TRUE(res.committed);
  // The child's round began after the last fetch and found both reads
  // current, so the commit sends nothing.
  EXPECT_EQ(comm.trace(), kFirstChild);
  EXPECT_EQ(metrics.snapshot().commits_read_only, 1u);
}

TEST_F(CommitRound, ChildRoundCarriesTheTreesReadsAtTheNodesItAsks) {
  const auto res = run_once([](tfa::Txn& tx) {
    read_at_one_and_two(tx);
    tx.nested([](tfa::Txn& child) { (void)child.read<Box>(kAtTwo); });
  });
  EXPECT_TRUE(res.committed);
  // The second child asks node 2 only, so 12 rides along and 11 does not;
  // the commit validates 11 alone.
  EXPECT_EQ(comm.trace(), std::string(kFirstChild) +
                              " Object(13)>2 Validate(13@3)>2 Validate(12@3)>2"
                              " Validate(11@3)>1");
}

TEST_F(CommitRound, RootReadAfterTheLastChildLeavesOnlyItselfUnchecked) {
  const auto res = run_once([](tfa::Txn& tx) {
    read_at_one_and_two(tx);
    (void)tx.read<Box>(kAtTwo);
  });
  EXPECT_TRUE(res.committed);
  // The child's round began before the root's fetch of 13, so the commit
  // validates every read but 13, the one fetched last.
  EXPECT_EQ(comm.trace(),
            std::string(kFirstChild) + " Object(13)>2 Validate(11@3)>1 Validate(12@3)>2");
}

TEST_F(CommitRound, StaleRiderAbortsTheRoot) {
  int validations_of_12 = 0;
  comm.script = [&validations_of_12](NodeId to,
                                     const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::ValidateRequest>(&p);
        r && r->oid == kRead && ++validations_of_12 == 2)
      return net::ValidateResponse{r->oid, ObjectStore::ValidateResult::kInvalid};
    return healthy(to, p);
  };
  const auto res = run_once([](tfa::Txn& tx) {
    read_at_one_and_two(tx);
    tx.nested([](tfa::Txn& child) { (void)child.read<Box>(kAtTwo); });
  });
  EXPECT_FALSE(res.committed);
  // The rider is the root's entry, so it aborts at depth 0: the second child
  // dies with its parent, and the first child's commit is rolled back.
  EXPECT_EQ(comm.trace(),
            std::string(kFirstChild) + " Object(13)>2 Validate(13@3)>2 Validate(12@3)>2");
  const auto counted = metrics.snapshot();
  EXPECT_EQ(root_aborts(AbortCause::kEarlyValidation), 1u);
  EXPECT_EQ(counted.nested_aborts_own_cause, 0u);
  EXPECT_EQ(counted.nested_aborts_parent_cause, 2u);
}

TEST_F(CommitRound, ChildRoundOfAWritingTreeCarriesNoRider) {
  const auto res = run_once([](tfa::Txn& tx) {
    tx.nested([](tfa::Txn& child) {
      child.write<Box>(kAtOne).value += 1;
      (void)child.read<Box>(kRead);
    });
    tx.nested([](tfa::Txn& child) { (void)child.read<Box>(kAtTwo); });
  });
  EXPECT_TRUE(res.committed);
  // The first child's round asks about its read of 12 alone. The second
  // asks node 2 about 13 alone, though the tree read 12 there; the writer's
  // commit locks 11 and then validates both reads.
  EXPECT_EQ(comm.trace(), "Object(11)>1 Object(12)>2 Validate(12@3)>2"
                          " Object(13)>2 Validate(13@3)>2"
                          " Lock(11@3)>1 Validate(13@3)>2 Validate(12@3)>2"
                          " Register(11:0@6)>1 async Commit(11@6:0)>1");
}

// ---- a writing child leaves its writes to the root's locks ----

TEST_F(CommitRound, WritingChildsRoundAsksOnlyAboutItsReads) {
  const auto res = run_once([](tfa::Txn& tx) {
    tx.nested([](tfa::Txn& child) {
      child.write<Box>(kAtOne).value += 1;
      child.write<Box>(kAtTwo).value += 1;
      (void)child.read<Box>(kRead);
    });
  });
  EXPECT_TRUE(res.committed);
  // The root's locks check the version of 11 and 13, so the child's round
  // does not: it asks about 12 alone.
  EXPECT_EQ(comm.trace(), "Object(11)>1 Object(13)>2 Object(12)>2 Validate(12@3)>2"
                          " Lock(11@3)>1 Lock(13@3)>2 Validate(12@3)>2"
                          " Register(11:0@6)>1 Register(13:0@6)>3"
                          " async Commit(11@6:0)>1 async Commit(13@6:0)>2");
  const auto counted = metrics.snapshot();
  EXPECT_EQ(counted.nested_commits, 1u);
  EXPECT_EQ(counted.nested_aborts_own_cause + counted.nested_aborts_parent_cause, 0u);
}

TEST_F(CommitRound, StaleChildWriteAbortsTheRootAtItsLock) {
  // Node 1 committed 11 after the fetch: a validation of 11 finds it
  // invalid, and a lock finds the version changed.
  comm.script = [](NodeId to, const net::Payload& p) -> std::optional<net::Payload> {
    if (const auto* r = std::get_if<net::ValidateRequest>(&p); r && r->oid == kAtOne)
      return net::ValidateResponse{r->oid, ObjectStore::ValidateResult::kInvalid};
    if (const auto* r = std::get_if<net::LockRequest>(&p); r && r->oid == kAtOne)
      return net::LockResponse{r->oid, ObjectStore::LockResult::kVersionMismatch};
    return healthy(to, p);
  };
  const auto res = run_once([](tfa::Txn& tx) {
    tx.nested([](tfa::Txn& child) {
      child.write<Box>(kAtOne).value += 1;
      (void)child.read<Box>(kRead);
    });
  });
  EXPECT_FALSE(res.committed);
  // The child merges; the root's lock is its first check of 11 and aborts
  // the root as early validation, rolling the merged child back.
  EXPECT_EQ(comm.trace(), "Object(11)>1 Object(12)>2 Validate(12@3)>2 Lock(11@3)>1");
  EXPECT_EQ(root_aborts(AbortCause::kEarlyValidation), 1u);
  const auto counted = metrics.snapshot();
  EXPECT_EQ(counted.nested_commits, 1u);
  EXPECT_EQ(counted.nested_aborts_own_cause, 0u);
  EXPECT_EQ(counted.nested_aborts_parent_cause, 1u);
}

}  // namespace
}  // namespace hyflow
