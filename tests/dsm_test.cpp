// Unit tests for the dataflow object layer: directory shard semantics,
// owner-side object store (lock/validate/evict/commit), object cloning and
// Find_owner over a live mini-cluster.
#include <gtest/gtest.h>

#include <set>

#include "dsm/directory.hpp"
#include "dsm/object_store.hpp"
#include "runtime/cluster.hpp"

namespace hyflow {
namespace {

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

ObjectSnapshot snap(ObjectId id, int v) { return std::make_shared<Box>(id, v); }

// ------------------------------------------------------------ Directory ----

TEST(Directory, PublishLookup) {
  dsm::DirectoryShard dir;
  dir.publish(ObjectId{1}, 3);
  EXPECT_EQ(dir.lookup(ObjectId{1}).value(), 3u);
  EXPECT_FALSE(dir.lookup(ObjectId{2}).has_value());
}

TEST(Directory, RegistrationIsMonotonic) {
  dsm::DirectoryShard dir;
  dir.publish(ObjectId{1}, 0);
  EXPECT_TRUE(dir.register_owner(ObjectId{1}, 5, 10));
  EXPECT_EQ(dir.lookup(ObjectId{1}).value(), 5u);
  // A stale registration (older clock) must not clobber the newer owner.
  EXPECT_FALSE(dir.register_owner(ObjectId{1}, 7, 9));
  EXPECT_EQ(dir.lookup(ObjectId{1}).value(), 5u);
  // Equal clock re-registration is accepted (idempotent retry).
  EXPECT_TRUE(dir.register_owner(ObjectId{1}, 6, 10));
  EXPECT_EQ(dir.lookup(ObjectId{1}).value(), 6u);
}

TEST(Directory, RegisterUnknownObjectCreates) {
  dsm::DirectoryShard dir;
  EXPECT_TRUE(dir.register_owner(ObjectId{9}, 2, 1));
  EXPECT_EQ(dir.lookup(ObjectId{9}).value(), 2u);
}

TEST(Directory, HomeNodeSpreadsObjects) {
  std::set<NodeId> homes;
  for (std::uint64_t i = 1; i <= 200; ++i) homes.insert(dsm::home_node(ObjectId{i}, 8));
  EXPECT_EQ(homes.size(), 8u);  // every node is home to something
  // Deterministic.
  EXPECT_EQ(dsm::home_node(ObjectId{42}, 8), dsm::home_node(ObjectId{42}, 8));
}

// ---------------------------------------------------------- ObjectStore ----

TEST(ObjectStore, InstallGetOwns) {
  dsm::ObjectStore store;
  EXPECT_FALSE(store.owns(ObjectId{1}));
  store.install(snap(ObjectId{1}, 7), Version{3, 0});
  ASSERT_TRUE(store.owns(ObjectId{1}));
  const auto view = store.get(ObjectId{1});
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(object_cast<Box>(*view->object).value, 7);
  EXPECT_EQ(view->version.clock, 3u);
  EXPECT_FALSE(view->locked_by.valid());
}

TEST(ObjectStore, LockRequiresMatchingVersion) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 0), Version{5, 0});
  EXPECT_EQ(store.lock(ObjectId{1}, TxnId{10}, 4),
            dsm::ObjectStore::LockResult::kVersionMismatch);
  EXPECT_EQ(store.lock(ObjectId{1}, TxnId{10}, 5), dsm::ObjectStore::LockResult::kGranted);
}

TEST(ObjectStore, LockExclusiveButReentrant) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 0), Version{1, 0});
  EXPECT_EQ(store.lock(ObjectId{1}, TxnId{10}, 1), dsm::ObjectStore::LockResult::kGranted);
  EXPECT_EQ(store.lock(ObjectId{1}, TxnId{11}, 1), dsm::ObjectStore::LockResult::kBusy);
  EXPECT_EQ(store.lock(ObjectId{1}, TxnId{10}, 1), dsm::ObjectStore::LockResult::kGranted);
}

TEST(ObjectStore, LockUnknownObjectIsNotOwner) {
  dsm::ObjectStore store;
  EXPECT_EQ(store.lock(ObjectId{1}, TxnId{10}, 0), dsm::ObjectStore::LockResult::kNotOwner);
}

TEST(ObjectStore, UnlockOnlyByHolder) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 0), Version{1, 0});
  store.lock(ObjectId{1}, TxnId{10}, 1);
  EXPECT_FALSE(store.unlock(ObjectId{1}, TxnId{11}));
  EXPECT_TRUE(store.unlock(ObjectId{1}, TxnId{10}));
  EXPECT_FALSE(store.get(ObjectId{1})->locked_by.valid());
}

TEST(ObjectStore, ValidateSemantics) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 0), Version{4, 0});
  EXPECT_EQ(store.validate(ObjectId{1}, 4), dsm::ObjectStore::ValidateResult::kValid);
  EXPECT_EQ(store.validate(ObjectId{1}, 3), dsm::ObjectStore::ValidateResult::kInvalid);
  EXPECT_EQ(store.validate(ObjectId{2}, 0), dsm::ObjectStore::ValidateResult::kNotOwner);
  // A locked slot is about to change: invalid.
  store.lock(ObjectId{1}, TxnId{10}, 4);
  EXPECT_EQ(store.validate(ObjectId{1}, 4), dsm::ObjectStore::ValidateResult::kInvalid);
}

TEST(ObjectStore, CommitInPlaceBumpsVersionAndUnlocks) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 1), Version{1, 0});
  store.lock(ObjectId{1}, TxnId{10}, 1);
  EXPECT_TRUE(store.commit_in_place(ObjectId{1}, TxnId{10}, snap(ObjectId{1}, 2), Version{2, 0}));
  const auto view = store.get(ObjectId{1});
  EXPECT_EQ(object_cast<Box>(*view->object).value, 2);
  EXPECT_EQ(view->version.clock, 2u);
  EXPECT_FALSE(view->locked_by.valid());
  // Without the lock, commit_in_place is refused.
  EXPECT_FALSE(store.commit_in_place(ObjectId{1}, TxnId{10}, snap(ObjectId{1}, 3), Version{3, 0}));
}

TEST(ObjectStore, EvictRemovesAndReturnsState) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 9), Version{1, 0});
  store.lock(ObjectId{1}, TxnId{10}, 1);
  const auto view = store.evict(ObjectId{1}, TxnId{10});
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(object_cast<Box>(*view->object).value, 9);
  EXPECT_FALSE(store.owns(ObjectId{1}));
  EXPECT_FALSE(store.evict(ObjectId{1}, TxnId{10}).has_value());
}

TEST(ObjectStore, OwnedIds) {
  dsm::ObjectStore store;
  store.install(snap(ObjectId{1}, 0), Version{1, 0});
  store.install(snap(ObjectId{2}, 0), Version{1, 0});
  auto ids = store.owned_ids();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(store.size(), 2u);
}

// --------------------------------------------------------------- Object ----

TEST(Object, CloneIsDeep) {
  Box original(ObjectId{1}, 5);
  auto copy = original.clone();
  object_cast<Box>(*copy).value = 6;
  EXPECT_EQ(original.value, 5);
  EXPECT_EQ(copy->id(), ObjectId{1});
}

TEST(Object, ObjectCastChecksType) {
  class Other : public TxObject<Other> {
   public:
    using TxObject::TxObject;
  };
  Box box(ObjectId{1});
  AbstractObject& ref = box;
  EXPECT_NO_THROW(object_cast<Box>(ref));
  EXPECT_THROW(object_cast<Other>(ref), std::bad_cast);
}

// ------------------------------------------------ Find_owner on cluster ----

TEST(FindOwner, ResolvesThroughDirectoryAndTracksMoves) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  cluster.create_object(std::make_unique<Box>(ObjectId{70}, 1), /*owner=*/2);

  // A transaction from node 0 must find the object on node 2 and, after a
  // write commit from node 1, the ownership must move to node 1.
  int seen = 0;
  auto r0 = cluster.execute(0, 1, [&](tfa::Txn& tx) { seen = tx.read<Box>(ObjectId{70}).value; });
  EXPECT_TRUE(r0.committed);
  EXPECT_EQ(seen, 1);

  auto r1 = cluster.execute(1, 2, [&](tfa::Txn& tx) { tx.write<Box>(ObjectId{70}).value = 2; });
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(cluster.node(1).store().owns(ObjectId{70}));
  // The old owner evicts its copy when the hand-off reaches it, after the
  // commit has returned.
  cluster.network().wait_idle();
  EXPECT_FALSE(cluster.node(2).store().owns(ObjectId{70}));

  // Directory agrees.
  const NodeId home = dsm::home_node(ObjectId{70}, 4);
  EXPECT_EQ(cluster.node(home).directory().lookup(ObjectId{70}).value(), 1u);

  // Stale hints on node 0 recover via wrong_owner.
  auto r2 = cluster.execute(0, 1, [&](tfa::Txn& tx) { seen = tx.read<Box>(ObjectId{70}).value; });
  EXPECT_TRUE(r2.committed);
  EXPECT_EQ(seen, 2);
  cluster.shutdown();
}

}  // namespace
}  // namespace hyflow
