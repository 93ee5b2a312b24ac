// Node/Comm-layer tests: envelope construction, request/reply routing, the
// routed reply used by queue hand-offs, Lamport clock propagation through
// message envelopes, and orphan-reply handling.
#include <gtest/gtest.h>

#include <thread>

#include "dsm/directory.hpp"
#include "runtime/cluster.hpp"

namespace hyflow::runtime {
namespace {

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

struct NodePair : ::testing::Test {
  void SetUp() override {
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.workers_per_node = 0;
    cfg.topology.min_delay = sim_us(5);
    cfg.topology.max_delay = sim_us(60);
    cluster = std::make_unique<Cluster>(cfg);
  }
  void TearDown() override { cluster->shutdown(); }
  std::unique_ptr<Cluster> cluster;
};

TEST_F(NodePair, RequestReplyRoundTrip) {
  // Use the directory protocol as a ready-made request/reply pair.
  cluster->node(1).directory().publish(ObjectId{50}, 2);
  auto call = cluster->node(0).request(1, net::FindOwnerRequest{ObjectId{50}});
  const auto reply = call.poll_for(sim_ms(500));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->from, 1u);
  EXPECT_EQ(reply->to, 0u);
  const auto& resp = std::get<net::FindOwnerResponse>(reply->payload);
  EXPECT_TRUE(resp.known);
  EXPECT_EQ(resp.owner, 2u);
}

TEST_F(NodePair, RequestToUnknownObjectSaysUnknown) {
  auto call = cluster->node(0).request(1, net::FindOwnerRequest{ObjectId{51}});
  const auto reply = call.poll_for(sim_ms(500));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(std::get<net::FindOwnerResponse>(reply->payload).known);
}

TEST_F(NodePair, EnvelopeCarriesSenderClock) {
  // Bump node 2's clock via commits; a later message from node 2 to node 0
  // must advance node 0's clock (Lamport receive rule).
  const ObjectId oid{52};
  cluster->create_object(std::make_unique<Box>(oid), 2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster->execute(2, 1, [&](tfa::Txn& tx) {
      tx.write<Box>(oid).value += 1;
    }).committed);
  }
  const auto clock2 = cluster->node(2).clock().read();
  ASSERT_GE(clock2, 3u);
  ASSERT_LT(cluster->node(0).clock().read(), clock2);
  // Any request/response pair with node 2 synchronises node 0.
  auto call = cluster->node(0).request(2, net::FindOwnerRequest{ObjectId{52}});
  ASSERT_TRUE(call.poll_for(sim_ms(500)).has_value());
  EXPECT_GE(cluster->node(0).clock().read(), clock2);
}

TEST_F(NodePair, PostIsFireAndForget) {
  // AbortUnlock for a lock nobody holds is harmless and produces no reply.
  cluster->create_object(std::make_unique<Box>(ObjectId{53}), 1);
  net::AbortUnlock msg;
  msg.oid = ObjectId{53};
  msg.txid = TxnId{99};
  cluster->node(0).post(1, msg);
  cluster->network().wait_idle();
  EXPECT_FALSE(cluster->node(1).store().get(ObjectId{53})->locked_by.valid());
}

TEST_F(NodePair, RoutedReplyReachesForeignCall) {
  // reply_routed answers a request that a *different* node received — the
  // queue hand-off path: node 0 sends a request towards node 1 (a one-way
  // payload, so node 1 stays silent) and node 2 answers it by routed reply.
  auto call = cluster->node(0).request(1, net::NotInterested{ObjectId{54}, TxnId{7}});
  net::ObjectResponse grant;
  grant.oid = ObjectId{54};
  grant.txid = TxnId{7};
  grant.object = std::make_shared<Box>(ObjectId{54}, 5);
  cluster->node(2).reply_routed(/*to=*/0, call.id(), grant);
  const auto got = call.poll_for(sim_ms(500));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 2u);  // the answer came from the third party
  const auto& resp = std::get<net::ObjectResponse>(got->payload);
  ASSERT_NE(resp.object, nullptr);
  EXPECT_EQ(object_cast<Box>(*resp.object).value, 5);
}

TEST_F(NodePair, OrphanGrantTriggersNotInterestedForwarding) {
  // A granted object whose requester stopped waiting must flow to the
  // next queued requester. Drive the real path: two transactions race for
  // an object under validation with RTS; one expires its backoff.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = "rts";
  cfg.scheduler.cl_threshold = 8;
  // Tiny max_backoff: enqueued requesters expire before hand-off.
  cfg.scheduler.min_backoff = sim_us(10);
  cfg.scheduler.max_backoff = sim_us(50);
  cfg.scheduler.handoff_slack = 0;
  Cluster c2(cfg);
  const ObjectId oid{55};
  c2.create_object(std::make_unique<Box>(oid), 0);
  // Plain concurrent increments; expiries must not lose updates.
  std::vector<std::jthread> threads;
  for (NodeId n = 0; n < 2; ++n) {
    threads.emplace_back([&c2, n, oid] {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(c2.execute(n, 1, [&](tfa::Txn& tx) {
          tx.write<Box>(oid).value += 1;
        }).committed);
      }
    });
  }
  threads.clear();
  int v = 0;
  c2.execute(0, 2, [&](tfa::Txn& tx) { v = tx.read<Box>(oid).value; });
  EXPECT_EQ(v, 20);
  c2.shutdown();
}

TEST_F(NodePair, WithdrawalFollowsTheQueueToTheNewOwner) {
  // A requester parks at node 0, then a commit hands the object and its
  // queue to node 1 (Alg. 4). The requester's withdrawal still goes to node
  // 0, the node that parked it; node 0 must pass it on to node 1, or the
  // entry waits at node 1 until someone serves the queue again.
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = "steal-on-abort";  // parks every conflicting requester
  cfg.topology.min_delay = sim_us(5);
  cfg.topology.max_delay = sim_us(60);
  Cluster c(cfg);
  const ObjectId oid{59};
  c.create_object(std::make_unique<Box>(oid, 1), 0);
  const TxnId committer = TxnId::make(1, 1);
  const TxnId waiter = TxnId::make(2, 1);

  // Node 1's transaction locks the object at node 0 for its commit.
  const Version read_version = c.node(0).store().get(oid)->version;
  ASSERT_EQ(c.node(0).store().lock(oid, committer, read_version.clock),
            dsm::ObjectStore::LockResult::kGranted);

  // Node 2's request conflicts with the lock and parks at node 0.
  net::ObjectRequest req;
  req.oid = oid;
  req.txid = waiter;
  req.mode = net::AccessMode::kWrite;
  auto parked = c.node(2).request(0, req);
  const auto park_reply = parked.poll_for(sim_ms(500));
  ASSERT_TRUE(park_reply.has_value());
  ASSERT_TRUE(std::get<net::ObjectResponse>(park_reply->payload).enqueued);

  // Node 1 commits: the hand-off returns node 0's queue, which node 1
  // absorbs next to its new copy.
  const Version committed{read_version.clock + 1, 1};
  net::CommitRequest commit;
  commit.oid = oid;
  commit.txid = committer;
  commit.new_version = committed;
  commit.new_owner = 1;
  auto handoff = c.node(1).request(0, commit);
  const auto handoff_reply = handoff.poll_for(sim_ms(500));
  ASSERT_TRUE(handoff_reply.has_value());
  c.node(1).store().install(std::make_shared<Box>(oid, 2), committed);
  c.node(1).scheduler().absorb_queue(
      oid, std::get<net::CommitResponse>(handoff_reply->payload).queue);
  ASSERT_EQ(c.node(1).scheduler().queue_depth(oid), 1u);

  // Node 2's backoff expires; it withdraws at the node that parked it.
  c.node(2).post(0, net::NotInterested{oid, waiter});
  c.network().wait_idle();
  EXPECT_EQ(c.node(1).scheduler().queue_depth(oid), 0u);
  c.shutdown();
}

TEST_F(NodePair, WithdrawalForwardingStopsOnAHintCycle) {
  // Stale owner hints can point two non-owners at each other: a late fetch
  // reply from a former owner overwrites a hint. A withdrawal caught in that
  // cycle must stop after cluster size - 1 forwards instead of circling.
  const ObjectId oid{60};
  cluster->create_object(std::make_unique<Box>(oid), 2);
  // A hand-off notice points its receiver's hint at the new owner.
  for (const auto& [at, to] : {std::pair<NodeId, NodeId>{0, 1}, {1, 0}}) {
    net::CommitRequest notice;
    notice.oid = oid;
    notice.txid = TxnId::make(to, 1);
    notice.new_owner = to;
    auto call = cluster->node(2).request(at, notice);
    ASSERT_TRUE(call.poll_for(sim_ms(500)).has_value());
  }

  cluster->node(2).post(0, net::NotInterested{oid, TxnId::make(2, 1)});
  auto received = [&] {
    std::uint64_t n = 0;
    for (NodeId i = 0; i < cluster->size(); ++i)
      n += cluster->node(i).metrics().snapshot().not_interested;
    return n;
  };
  // The original plus two forwards (0 -> 1 -> 0), then nothing more.
  for (int i = 0; i < 2000 && received() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(received(), 3u);
}

TEST_F(NodePair, WaitForTimesOutCleanly) {
  // A request whose reply is slower than the timeout: poll_for returns
  // nothing and the system keeps running (the call ends, and the late reply
  // becomes an orphan). Every link takes 50 ms, so the reply is late unless
  // the test thread stalls for a whole round trip between the request and
  // the wait.
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_ms(50);
  cfg.topology.max_delay = sim_ms(50);
  Cluster c(cfg);
  {
    auto call = c.node(0).request(2, net::FindOwnerRequest{ObjectId{56}});
    EXPECT_FALSE(call.poll_for(1).has_value());  // 1 ns, against a 100 ms round trip
  }
  c.network().wait_idle();
  // Both the request and the reply were sent and delivered: the late reply
  // reached node 0 and was absorbed as an orphan.
  EXPECT_EQ(c.network().stats().messages.load(), 2u);
  EXPECT_EQ(c.network().stats().dropped_on_stop.load(), 0u);
  c.shutdown();
}

TEST_F(NodePair, UnackedGrantIsReservedByTheSweep) {
  // The dispatcher runs every node's grant sweep each millisecond. A grant
  // whose requester never sends GrantAck (here a bare request, not a
  // transaction) is presumed lost after grant_ack_timeout: the owner forgets
  // that requester and hands the object to the next one parked behind it.
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = "steal-on-abort";  // parks every conflicting requester
  cfg.tfa.grant_ack_timeout = sim_ms(2);
  cfg.topology.min_delay = sim_us(5);
  cfg.topology.max_delay = sim_us(60);
  Cluster c(cfg);
  const ObjectId oid{62};
  c.create_object(std::make_unique<Box>(oid, 1), 0);
  const TxnId committer = TxnId::make(0, 1);
  const Version version = c.node(0).store().get(oid)->version;
  ASSERT_EQ(c.node(0).store().lock(oid, committer, version.clock),
            dsm::ObjectStore::LockResult::kGranted);

  // Node 1's request parks first, node 2's behind it.
  const auto park = [&](NodeId from) {
    net::ObjectRequest req;
    req.oid = oid;
    req.txid = TxnId::make(from, 1);
    req.mode = net::AccessMode::kWrite;
    auto call = c.node(from).request(0, req);
    const auto reply = call.poll_for(sim_ms(500));
    EXPECT_TRUE(reply && std::get<net::ObjectResponse>(reply->payload).enqueued);
    return call;
  };
  auto first = park(1);
  auto second = park(2);
  ASSERT_EQ(c.node(0).scheduler().queue_depth(oid), 2u);

  // The release grants the object to node 1, which never acks it.
  auto release = c.node(1).request(0, net::AbortUnlock{oid, committer});
  ASSERT_TRUE(release.poll_for(sim_ms(500)).has_value());
  const auto granted = first.poll_for(sim_ms(500));
  ASSERT_TRUE(granted.has_value());
  EXPECT_TRUE(std::get<net::ObjectResponse>(granted->payload).handoff);

  const auto reserved = second.poll_for(sim_ms(5000));
  ASSERT_TRUE(reserved.has_value());
  const auto& resp = std::get<net::ObjectResponse>(reserved->payload);
  EXPECT_EQ(resp.txid, TxnId::make(2, 1));
  ASSERT_NE(resp.object, nullptr);
  EXPECT_EQ(object_cast<Box>(*resp.object).value, 1);
  EXPECT_GE(c.node(0).metrics().snapshot().grant_reforwards, 1u);
  c.shutdown();
}

TEST_F(NodePair, RequestWaitsForTheOwnersStep) {
  // Each owner-side step holds the node's owner lock from its first read to
  // its last state change, so a request that arrives during a step is handled
  // after it and sees only the state the step left. Here the step locks the
  // object for a commit and unlocks it again: the request must find the
  // object free and get it, never see it locked and ask the scheduler.
  const ObjectId oid{61};
  cluster->create_object(std::make_unique<Box>(oid, 1), 0);
  Node& owner = cluster->node(0);
  const TxnId committer = TxnId::make(0, 1);
  net::ObjectRequest req;
  req.oid = oid;
  req.txid = TxnId::make(2, 1);
  req.mode = net::AccessMode::kWrite;

  MutexLock step(owner.owner().mutex());
  const Version version = owner.store().get(oid)->version;
  ASSERT_EQ(owner.store().lock(oid, committer, version.clock),
            dsm::ObjectStore::LockResult::kGranted);
  auto call = cluster->node(2).request(0, req);
  // The handler waits for the step; no answer can come while it lasts.
  EXPECT_FALSE(call.poll_for(sim_ms(20)).has_value());
  ASSERT_TRUE(owner.store().unlock(oid, committer));
  step.unlock();

  const auto reply = call.poll_for(sim_ms(500));
  ASSERT_TRUE(reply.has_value());
  const auto& resp = std::get<net::ObjectResponse>(reply->payload);
  EXPECT_FALSE(resp.enqueued);
  ASSERT_NE(resp.object, nullptr);
  EXPECT_EQ(object_cast<Box>(*resp.object).value, 1);
  EXPECT_EQ(resp.version.clock, version.clock);
}

TEST_F(NodePair, StaleOwnerHintRetriesViaWrongOwner) {
  // The stale-directory path of Alg. 2: node 0 caches node 1 as the owner,
  // the object then migrates to node 2 (node 2's write commit registers it
  // there and evicts node 1's copy), and node 0's next write must bounce
  // off node 1 with wrong_owner, re-resolve, and still commit.
  const ObjectId oid{57};
  cluster->create_object(std::make_unique<Box>(oid, 5), 1);

  // Prime node 0's owner hint with a read served by node 1.
  ASSERT_TRUE(cluster->execute(0, 1, [&](tfa::Txn& tx) {
    EXPECT_EQ(tx.read<Box>(oid).value, 5);
  }).committed);

  // Move ownership: a write from node 2 makes node 2 the owner.
  ASSERT_TRUE(cluster->execute(2, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value = 6;
  }).committed);
  cluster->network().wait_idle();

  const auto before = cluster->total_metrics();
  ASSERT_TRUE(cluster->execute(0, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value += 10;
  }).committed);
  cluster->network().wait_idle();
  const auto after = cluster->total_metrics();
  EXPECT_GT(after.wrong_owner_retries, before.wrong_owner_retries)
      << "the stale hint should have forced at least one wrong-owner retry";
  EXPECT_EQ(object_cast<Box>(*cluster->committed_copy(oid)).value, 16);
}

TEST_F(NodePair, CommitReturnsBeforeTheHandoffCompletes) {
  // A commit that moves an object sends the old owner its CommitRequest and
  // returns: the old owner keeps its locked copy until the request lands,
  // and the new owner absorbs the old owner's queue when the reply lands.
  // Every link takes 50 ms, so the CommitRequest is still on the wire when
  // the commit returns; the long first timeout keeps resends out of the
  // picture.
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_ms(50);
  cfg.topology.max_delay = sim_ms(50);
  cfg.rpc.base_timeout = sim_ms(1000);
  cfg.rpc.max_timeout = sim_ms(1000);
  Cluster c(cfg);
  const ObjectId oid{63};
  c.create_object(std::make_unique<Box>(oid, 1), 0);

  ASSERT_TRUE(c.execute(1, 1, [&](tfa::Txn& tx) { tx.write<Box>(oid).value = 2; }).committed);
  EXPECT_NE(c.node(0).owner().owned_copy(oid), nullptr);
  EXPECT_EQ(c.node(0).owner().locked_slots(), 1u);
  EXPECT_EQ(c.node(1).owner().unanswered_requests(), 1u);

  c.network().wait_idle();
  EXPECT_EQ(c.node(0).owner().owned_objects(), 0u);
  const auto copy = c.node(1).owner().owned_copy(oid);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(object_cast<Box>(*copy).value, 2);
  EXPECT_EQ(c.node(1).store().get(oid)->version.writer, 1u);
  EXPECT_EQ(c.unanswered_requests(), 0u);
  c.shutdown();
}

TEST_F(NodePair, RefusedRegistrationIsCounted) {
  // The home node keeps the registration with the highest version clock. A
  // commit whose clock is below it is refused there; the committer counts
  // the refusal.
  const ObjectId oid{64};
  cluster->create_object(std::make_unique<Box>(oid, 1), 2);
  net::RegisterOwnerRequest newer;
  newer.oid = oid;
  newer.new_owner = 2;
  newer.version_clock = 1000;
  auto call = cluster->node(0).request(dsm::home_node(oid, cluster->size()), newer);
  const auto reply = call.poll_for(sim_ms(500));
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(std::get<net::RegisterOwnerResponse>(reply->payload).ok);

  ASSERT_TRUE(cluster->execute(1, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value = 2;
  }).committed);
  ASSERT_LT(cluster->node(1).clock().read(), 1000u);
  EXPECT_EQ(cluster->node(1).metrics().snapshot().register_refusals, 1u);
  EXPECT_EQ(cluster->total_metrics().register_refusals, 1u);
}

TEST_F(NodePair, DuplicateRequestIsAnsweredFromTheReplyCache) {
  // Receiver-side dedup: re-sending a request under its original msg_id
  // must not re-execute the handler — the cached reply is replayed and the
  // dedup counter ticks.
  cluster->node(1).directory().publish(ObjectId{58}, 2);
  const net::FindOwnerRequest req{ObjectId{58}};
  auto call = cluster->node(0).request(1, req);
  const auto first = call.poll_for(sim_ms(100));
  ASSERT_TRUE(first.has_value());

  const auto before = cluster->node(1).metrics().snapshot();
  cluster->node(0).resend(1, call.id(), /*attempt=*/1, req);
  const auto second = call.poll_for(sim_ms(100));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<net::FindOwnerResponse>(second->payload).owner, 2u);
  cluster->network().wait_idle();
  const auto after = cluster->node(1).metrics().snapshot();
  EXPECT_EQ(after.dedup_hits, before.dedup_hits + 1);
  // And the resend itself is counted by the sender.
  EXPECT_GT(cluster->node(0).metrics().snapshot().rpc_retries, 0u);
}

}  // namespace
}  // namespace hyflow::runtime
