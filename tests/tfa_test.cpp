// Unit tests for the TFA layer: node clocks, the stats table, access sets,
// transaction-tree mechanics, and the forwarding/validation protocol on a
// live mini-cluster.
#include <gtest/gtest.h>

#include "dsm/directory.hpp"
#include "runtime/cluster.hpp"
#include "tfa/node_clock.hpp"
#include "tfa/stats_table.hpp"
#include "tfa/transaction.hpp"

namespace hyflow::tfa {
namespace {

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

// ------------------------------------------------------------ NodeClock ----

TEST(NodeClock, AdvanceToIsMax) {
  NodeClock clock;
  EXPECT_EQ(clock.read(), 0u);
  clock.advance_to(5);
  EXPECT_EQ(clock.read(), 5u);
  clock.advance_to(3);  // never goes backwards
  EXPECT_EQ(clock.read(), 5u);
}

TEST(NodeClock, IncrementPastFloor) {
  NodeClock clock;
  clock.advance_to(10);
  EXPECT_EQ(clock.increment_past(4), 11u);   // clock dominates
  EXPECT_EQ(clock.increment_past(20), 21u);  // floor dominates
  EXPECT_EQ(clock.read(), 21u);
}

TEST(NodeClock, ConcurrentIncrementsUnique) {
  NodeClock clock;
  std::vector<std::uint64_t> results(4000);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 1000; ++i) results[t * 1000 + i] = clock.increment_past(0);
      });
    }
  }
  std::sort(results.begin(), results.end());
  EXPECT_TRUE(std::adjacent_find(results.begin(), results.end()) == results.end());
}

// ----------------------------------------------------------- StatsTable ----

TEST(StatsTable, DefaultBeforeSeeding) {
  StatsTable table(sim_ms(3));
  EXPECT_EQ(table.expected_duration(1), sim_ms(3));
  EXPECT_EQ(table.expected_commit(1, 100), 100 + sim_ms(3));
}

TEST(StatsTable, EwmaTracksCommits) {
  StatsTable table(sim_ms(3));
  for (int i = 0; i < 50; ++i) table.record_commit(1, sim_ms(10));
  EXPECT_NEAR(static_cast<double>(table.expected_duration(1)),
              static_cast<double>(sim_ms(10)), static_cast<double>(sim_ms(1)));
  // Other profiles are independent.
  EXPECT_EQ(table.expected_duration(2), sim_ms(3));
}

TEST(StatsTable, IgnoresNonPositiveDurations) {
  StatsTable table(sim_ms(3));
  table.record_commit(1, 0);
  table.record_commit(1, -5);
  EXPECT_EQ(table.expected_duration(1), sim_ms(3));
}

// ------------------------------------------------------------ AccessSet ----

TEST(AccessEntry, MutableCopyIsLazyAndIsolated) {
  AccessEntry entry;
  entry.base = std::make_shared<Box>(ObjectId{1}, 5);
  EXPECT_EQ(entry.working, nullptr);
  EXPECT_EQ(object_cast<Box>(entry.effective()).value, 5);
  auto& copy = object_cast<Box>(entry.mutable_copy());
  copy.value = 9;
  EXPECT_EQ(entry.mode, net::AccessMode::kWrite);
  EXPECT_EQ(object_cast<Box>(entry.effective()).value, 9);
  EXPECT_EQ(object_cast<Box>(*entry.base).value, 5);  // base untouched
  // Second call returns the same working copy.
  EXPECT_EQ(&entry.mutable_copy(), static_cast<AbstractObject*>(&copy));
}

TEST(AccessSet, WriteCountSkipsInheritedAndReads) {
  AccessSet set;
  AccessEntry read_entry;
  read_entry.base = std::make_shared<Box>(ObjectId{1});
  set.insert(ObjectId{1}, std::move(read_entry));

  AccessEntry write_entry;
  write_entry.base = std::make_shared<Box>(ObjectId{2});
  write_entry.mutable_copy();
  set.insert(ObjectId{2}, std::move(write_entry));

  AccessEntry inherited;
  inherited.base = std::make_shared<Box>(ObjectId{3});
  inherited.inherited = true;
  inherited.mutable_copy();
  set.insert(ObjectId{3}, std::move(inherited));

  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.write_count(), 1u);
}

// ------------------------------------------------------ Transaction tree ----

Transaction make_root() {
  return Transaction(TxnId::make(0, 1), /*start_clock=*/3, /*wall_start=*/100,
                     /*expected_commit=*/200);
}

TEST(Transaction, RootState) {
  auto root = make_root();
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.depth(), 0);
  EXPECT_EQ(root.start_clock(), 3u);
  root.forward_to(9);
  EXPECT_EQ(root.start_clock(), 9u);
  EXPECT_EQ(root.wall_start(), 100);
  EXPECT_EQ(root.expected_commit(), 200);
}

TEST(Transaction, ChildChainAndActiveChild) {
  auto root = make_root();
  EXPECT_EQ(root.active_child(), nullptr);
  {
    Transaction child(root);
    EXPECT_EQ(child.depth(), 1);
    EXPECT_EQ(&child.root(), &root);
    EXPECT_EQ(root.active_child(), &child);
    {
      Transaction grandchild(child);
      EXPECT_EQ(grandchild.depth(), 2);
      EXPECT_EQ(&grandchild.root(), &root);
      // Forwarding through a grandchild moves the ROOT's clock.
      grandchild.forward_to(42);
      EXPECT_EQ(root.start_clock(), 42u);
    }
    EXPECT_EQ(child.active_child(), nullptr);
  }
  EXPECT_EQ(root.active_child(), nullptr);
}

AccessEntry fetched_entry(int value, std::uint32_t owner_cl = 0) {
  AccessEntry e;
  e.base = std::make_shared<Box>(ObjectId{1}, value);
  e.owner_cl = owner_cl;
  return e;
}

TEST(Transaction, FindUpSearchesAncestors) {
  auto root = make_root();
  root.set().insert(ObjectId{1}, fetched_entry(5));
  Transaction child(root);
  const auto found = child.find_up(ObjectId{1});
  ASSERT_NE(found.entry, nullptr);
  EXPECT_EQ(found.depth, 0);
  EXPECT_FALSE(child.find_up(ObjectId{2}).entry);
}

TEST(Transaction, MergeMovesFetchedEntries) {
  auto root = make_root();
  Transaction child(root);
  child.set().insert(ObjectId{1}, fetched_entry(5));
  child.merge_into_parent();
  EXPECT_TRUE(child.set().empty());
  ASSERT_NE(root.set().find(ObjectId{1}), nullptr);
  EXPECT_EQ(object_cast<Box>(root.set().find(ObjectId{1})->effective()).value, 5);
}

TEST(Transaction, MergeFoldsInheritedWriteIntoParentEntry) {
  auto root = make_root();
  root.set().insert(ObjectId{1}, fetched_entry(5));
  Transaction child(root);
  // Child writes the parent's object through an inherited view.
  AccessEntry view;
  view.inherited = true;
  view.base = root.set().find(ObjectId{1})->base;
  child.set().insert(ObjectId{1}, std::move(view));
  object_cast<Box>(child.set().find(ObjectId{1})->mutable_copy()).value = 7;
  child.merge_into_parent();

  AccessEntry* pe = root.set().find(ObjectId{1});
  ASSERT_NE(pe, nullptr);
  EXPECT_FALSE(pe->inherited);
  EXPECT_EQ(pe->mode, net::AccessMode::kWrite);
  EXPECT_EQ(object_cast<Box>(pe->effective()).value, 7);
}

TEST(Transaction, ChildAbortLeavesParentUntouched) {
  auto root = make_root();
  root.set().insert(ObjectId{1}, fetched_entry(5));
  {
    Transaction child(root);
    AccessEntry view;
    view.inherited = true;
    view.base = root.set().find(ObjectId{1})->base;
    child.set().insert(ObjectId{1}, std::move(view));
    object_cast<Box>(child.set().find(ObjectId{1})->mutable_copy()).value = 99;
    // Child destroyed without merge: an abort.
  }
  EXPECT_EQ(object_cast<Box>(root.set().find(ObjectId{1})->effective()).value, 5);
}

TEST(Transaction, CollectMyClSumsChain) {
  auto root = make_root();
  root.set().insert(ObjectId{1}, fetched_entry(0, 3));
  Transaction child(root);
  auto e = fetched_entry(0, 4);
  child.set().insert(ObjectId{2}, std::move(e));
  AccessEntry inherited;
  inherited.inherited = true;
  inherited.owner_cl = 100;  // must NOT be double counted
  inherited.base = std::make_shared<Box>(ObjectId{1});
  child.set().insert(ObjectId{1}, std::move(inherited));
  EXPECT_EQ(child.collect_my_cl(), 7u);
  EXPECT_EQ(root.collect_my_cl(), 3u);
}

// ----------------------------------------- Forwarding on a live cluster ----

TEST(TfaProtocol, ForwardingValidatesAndAdvancesStart) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  // Pick object ids whose home nodes avoid node 0, so node 0's Lamport
  // clock stays at zero until it fetches — guaranteeing the second fetch
  // observes a clock ahead of the transaction's start (a forwarding).
  ObjectId first{0}, second{0};
  for (std::uint64_t v = 101; !first.valid() || !second.valid(); ++v) {
    const ObjectId oid{v};
    if (dsm::home_node(oid, 3) == 0) continue;
    (first.valid() ? second : first) = oid;
  }
  cluster.create_object(std::make_unique<Box>(first, 0), 1);
  cluster.create_object(std::make_unique<Box>(second, 0), 2);
  const ObjectId o101 = first, o102 = second;

  // Bump node 2's clock with a couple of commits.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.execute(2, 1, [&](tfa::Txn& tx) {
      tx.write<Box>(o102).value += 1;
    }).committed);
  }

  const auto before = cluster.node(0).metrics().snapshot();
  // Node 0 reads the first object, then the second (whose owner's clock is
  // ahead): forwarding.
  int v = 0;
  ASSERT_TRUE(cluster.execute(0, 2, [&](tfa::Txn& tx) {
    v += tx.read<Box>(o101).value;
    v += tx.read<Box>(o102).value;
  }).committed);
  const auto after = cluster.node(0).metrics().snapshot();
  EXPECT_EQ(v, 3);
  EXPECT_GT(after.forwardings, before.forwardings);
  cluster.shutdown();
}

TEST(TfaProtocol, StaleReadAbortsAndRetries) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  cluster.create_object(std::make_unique<Box>(ObjectId{110}, 0), 0);
  cluster.create_object(std::make_unique<Box>(ObjectId{111}, 0), 1);

  // A transaction that reads 110, then (once, mid-flight) lets a rival
  // commit a write to 110 before opening 111 — its read must be detected
  // stale and the transaction must retry and still commit.
  bool rival_done = false;
  const auto result = cluster.execute(0, 3, [&](tfa::Txn& tx) {
    (void)tx.read<Box>(ObjectId{110});
    if (!rival_done) {
      rival_done = true;
      ASSERT_TRUE(cluster.execute(1, 4, [&](tfa::Txn& rival) {
        tx.runtime();  // silence unused warnings; rival writes 110
        rival.write<Box>(ObjectId{110}).value = 77;
      }).committed);
    }
    tx.write<Box>(ObjectId{111}).value = tx.read<Box>(ObjectId{110}).value;
  });
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.attempts, 2u);
  // The retried transaction saw the rival's write.
  int final_value = -1;
  cluster.execute(1, 5, [&](tfa::Txn& tx) { final_value = tx.read<Box>(ObjectId{111}).value; });
  EXPECT_EQ(final_value, 77);
  cluster.shutdown();
}

TEST(TfaProtocol, WriteWriteConflictOneWins) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  cluster.create_object(std::make_unique<Box>(ObjectId{120}, 0), 0);

  // Concurrent increments from all nodes must serialise to an exact sum.
  std::vector<std::jthread> threads;
  for (NodeId n = 0; n < 4; ++n) {
    threads.emplace_back([&cluster, n] {
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(cluster.execute(n, 6, [&](tfa::Txn& tx) {
          tx.write<Box>(ObjectId{120}).value += 1;
        }).committed);
      }
    });
  }
  threads.clear();
  int final_value = 0;
  cluster.execute(0, 7, [&](tfa::Txn& tx) { final_value = tx.read<Box>(ObjectId{120}).value; });
  EXPECT_EQ(final_value, 20);
  cluster.shutdown();
}

}  // namespace
}  // namespace hyflow::tfa
