// Per-workload unit tests: object placement, operation-generation
// properties (read ratio, nesting bounds, key ranges), workload-specific
// behaviour (DHT key hashing, vacation booking/release/fallback, tree
// initial shapes), and negative tests showing the verifiers actually catch
// corruption.
#include <gtest/gtest.h>

#include <map>

#include "dsm/directory.hpp"
#include "runtime/cluster.hpp"
#include "workloads/bank.hpp"
#include "workloads/bst.hpp"
#include "workloads/dht.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/rbtree.hpp"
#include "workloads/registry.hpp"
#include "workloads/vacation.hpp"

namespace hyflow::workloads {
namespace {

WorkloadConfig quick_config(double read_ratio = 0.5) {
  WorkloadConfig cfg;
  cfg.read_ratio = read_ratio;
  cfg.objects_per_node = 6;
  cfg.max_nested = 4;
  cfg.local_work = 0;
  return cfg;
}

runtime::ClusterConfig quiet_cluster(std::uint32_t nodes = 4) {
  runtime::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_us(1);
  cfg.topology.max_delay = sim_us(20);
  return cfg;
}

// ------------------------------------------------------------- registry ----

TEST(Registry, AllNamesConstruct) {
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name, quick_config());
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->name(), name);
  }
}

TEST(Registry, Aliases) {
  EXPECT_EQ(make_workload("ll", quick_config())->name(), "linked-list");
  EXPECT_EQ(make_workload("rbtree", quick_config())->name(), "rb-tree");
}

TEST(Registry, SixBenchmarks) { EXPECT_EQ(workload_names().size(), 6u); }

// ------------------------------------------------- op generation sweeps ----

class OpGeneration : public ::testing::TestWithParam<std::string> {};

TEST_P(OpGeneration, ReadRatioRespected) {
  auto wl = make_workload(GetParam(), quick_config(0.7));
  runtime::Cluster cluster(quiet_cluster());
  wl->setup(cluster);
  Xoshiro256 rng(5);
  int reads = 0;
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    const auto op = wl->next_op(0, rng);
    ASSERT_TRUE(static_cast<bool>(op.body));
    reads += op.is_read ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(reads) / kOps, 0.7, 0.05);
  cluster.shutdown();
}

TEST_P(OpGeneration, PureReadAndPureWriteExtremes) {
  for (double rr : {0.0, 1.0}) {
    auto wl = make_workload(GetParam(), quick_config(rr));
    runtime::Cluster cluster(quiet_cluster());
    wl->setup(cluster);
    Xoshiro256 rng(9);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(wl->next_op(0, rng).is_read, rr == 1.0);
    cluster.shutdown();
  }
}

TEST_P(OpGeneration, OpsCommitAndVerifyOnQuietCluster) {
  auto wl = make_workload(GetParam(), quick_config(0.3));
  runtime::Cluster cluster(quiet_cluster());
  wl->setup(cluster);
  Xoshiro256 rng(13);
  for (int i = 0; i < 40; ++i) {
    const auto op = wl->next_op(0, rng);
    EXPECT_TRUE(cluster.execute(0, op.profile, op.body).committed);
  }
  EXPECT_TRUE(wl->verify(cluster));
  cluster.shutdown();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OpGeneration,
                         ::testing::ValuesIn(workload_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ----------------------------------------------------------------- bank ----

TEST(Bank, PlacementRoundRobin) {
  BankWorkload bank(quick_config());
  runtime::Cluster cluster(quiet_cluster(4));
  bank.setup(cluster);
  EXPECT_EQ(bank.accounts().size(), 4u * 6u);
  // Account i starts at node i % 4.
  for (std::size_t i = 0; i < bank.accounts().size(); ++i)
    EXPECT_TRUE(cluster.node(static_cast<NodeId>(i % 4)).store().owns(bank.accounts()[i]));
  cluster.shutdown();
}

TEST(Bank, VerifyCatchesCorruption) {
  BankWorkload bank(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  bank.setup(cluster);
  ASSERT_TRUE(bank.verify(cluster));
  // Counterfeit money: bump one account outside any transaction.
  const ObjectId victim = bank.accounts()[0];
  auto slot = cluster.node(0).store().get(victim);
  ASSERT_TRUE(slot.has_value());
  auto forged = slot->object->clone();
  object_cast<Account>(*forged).deposit(1);
  cluster.node(0).store().install(ObjectSnapshot{std::move(forged)}, slot->version);
  EXPECT_FALSE(bank.verify(cluster));
  cluster.shutdown();
}

TEST(Bank, TransfersPreserveTotalSequentially) {
  BankWorkload bank(quick_config(0.0));
  runtime::Cluster cluster(quiet_cluster(3));
  bank.setup(cluster);
  Xoshiro256 rng(31);
  for (int i = 0; i < 60; ++i) {
    const auto op = bank.next_op(0, rng);
    ASSERT_TRUE(cluster.execute(0, op.profile, op.body).committed);
  }
  EXPECT_TRUE(bank.verify(cluster));
  cluster.shutdown();
}

// ------------------------------------------------------------------ dht ----

TEST(Dht, KeysHashToStableBuckets) {
  DhtWorkload dht(quick_config());
  runtime::Cluster cluster(quiet_cluster(4));
  dht.setup(cluster);
  for (std::uint64_t key = 0; key < 100; ++key)
    EXPECT_EQ(dht.bucket_index_of(key), dht.bucket_index_of(key));
  cluster.shutdown();
}

TEST(Dht, PutThenGetRoundTrips) {
  DhtWorkload dht(quick_config(0.0));
  runtime::Cluster cluster(quiet_cluster(3));
  dht.setup(cluster);
  Xoshiro256 rng(7);
  // Drive puts, then verify structural placement via the workload verifier.
  for (int i = 0; i < 30; ++i) {
    const auto op = dht.next_op(0, rng);
    ASSERT_TRUE(cluster.execute(0, op.profile, op.body).committed);
  }
  EXPECT_TRUE(dht.verify(cluster));
  cluster.shutdown();
}

TEST(Dht, VerifyCatchesMisplacedKey) {
  DhtWorkload dht(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  dht.setup(cluster);
  // Plant a key into a bucket it does not hash to.
  std::uint64_t key = 0;
  while (dht.bucket_index_of(key) == 0) ++key;
  const ObjectId bucket0 = make_oid(IdSpace::kDhtBucket, 0);
  auto slot = cluster.node(0).store().get(bucket0);
  ASSERT_TRUE(slot.has_value());
  auto forged = slot->object->clone();
  object_cast<Bucket>(*forged).put(key, 1);
  cluster.node(0).store().install(ObjectSnapshot{std::move(forged)}, slot->version);
  EXPECT_FALSE(dht.verify(cluster));
  cluster.shutdown();
}

// ---------------------------------------------------------- linked list ----

TEST(LinkedList, InitialListSortedEvensOnly) {
  LinkedListWorkload ll(quick_config());
  runtime::Cluster cluster(quiet_cluster(3));
  ll.setup(cluster);
  ASSERT_TRUE(ll.verify(cluster));
  // Every even key present, every odd key absent.
  for (std::size_t k = 0; k < ll.universe(); ++k) {
    bool present = false;
    cluster.execute(0, 1, [&](tfa::Txn& tx) {
      present = ll.contains(tx, static_cast<std::int64_t>(k));
    });
    EXPECT_EQ(present, k % 2 == 0) << "key " << k;
  }
  cluster.shutdown();
}

TEST(LinkedList, AddRemoveIdempotent) {
  LinkedListWorkload ll(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  ll.setup(cluster);
  auto run = [&](auto fn) {
    ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) { fn(tx); }).committed);
  };
  run([&](tfa::Txn& tx) { ll.insert(tx, 1); });
  run([&](tfa::Txn& tx) { ll.insert(tx, 1); });  // second insert: no-op
  EXPECT_TRUE(ll.verify(cluster));
  run([&](tfa::Txn& tx) { ll.remove(tx, 1); });
  run([&](tfa::Txn& tx) { ll.remove(tx, 1); });  // second remove: no-op
  EXPECT_TRUE(ll.verify(cluster));
  bool present = true;
  run([&](tfa::Txn& tx) { present = ll.contains(tx, 1); });
  EXPECT_FALSE(present);
  cluster.shutdown();
}

TEST(LinkedList, VerifyCatchesCycle) {
  LinkedListWorkload ll(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  ll.setup(cluster);
  // Corrupt: point slot 0's next back at itself.
  const ObjectId slot0 = make_oid(IdSpace::kListNode, 0);
  for (NodeId n = 0; n < 2; ++n) {
    if (auto slot = cluster.node(n).store().get(slot0)) {
      auto forged = slot->object->clone();
      object_cast<ListNode>(*forged).set_next(slot0);
      cluster.node(n).store().install(ObjectSnapshot{std::move(forged)}, slot->version);
    }
  }
  EXPECT_FALSE(ll.verify(cluster));
  cluster.shutdown();
}

// ------------------------------------------------------------ bst / rb -----

TEST(Bst, InitialTreeValidAndEvensPresent) {
  BstWorkload bst(quick_config());
  runtime::Cluster cluster(quiet_cluster(3));
  bst.setup(cluster);
  EXPECT_TRUE(bst.verify(cluster));
  cluster.shutdown();
}

TEST(Bst, VerifyCatchesBrokenParentPointer) {
  BstWorkload bst(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  bst.setup(cluster);
  ASSERT_TRUE(bst.verify(cluster));
  // Point one linked non-root node's parent at itself.
  bool corrupted = false;
  for (NodeId n = 0; n < 2 && !corrupted; ++n) {
    for (const ObjectId oid : cluster.node(n).store().owned_ids()) {
      const auto slot = cluster.node(n).store().get(oid);
      auto forged = slot->object->clone();
      if (auto* node = dynamic_cast<TreeNode*>(forged.get()); node && node->parent().valid()) {
        node->set_parent(oid);
        cluster.node(n).store().install(ObjectSnapshot{std::move(forged)}, slot->version);
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(bst.verify(cluster));
  cluster.shutdown();
}

TEST(RbTree, InitialTreeSatisfiesAllInvariants) {
  RbTreeWorkload rb(quick_config());
  runtime::Cluster cluster(quiet_cluster(3));
  rb.setup(cluster);
  EXPECT_TRUE(rb.verify(cluster));
  cluster.shutdown();
}

TEST(RbTree, VerifyCatchesRedRedViolation) {
  RbTreeWorkload rb(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  rb.setup(cluster);
  // Paint every node red: guaranteed red-red (or red root) violation.
  bool corrupted = false;
  for (NodeId n = 0; n < 2 && !corrupted; ++n) {
    for (const ObjectId oid : cluster.node(n).store().owned_ids()) {
      const auto slot = cluster.node(n).store().get(oid);
      auto forged = slot->object->clone();
      if (auto* node = dynamic_cast<TreeNode*>(forged.get()); node && !node->red()) {
        node->set_red(true);
        cluster.node(n).store().install(ObjectSnapshot{std::move(forged)}, slot->version);
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(rb.verify(cluster));
  cluster.shutdown();
}

// --------------------------------------------------------- integer sets ----

// Runs 100 ops of a set workload one at a time, op i on node i % 3, and
// folds each op's profile, read flag, outcome, attempts and message count
// into one FNV-1a digest. The network is idle before and after every op,
// and the one-second RPC timeout keeps a host stall from causing a resend,
// so the digest depends only on the op stream and the object accesses.
std::uint64_t sequential_digest(const std::string& workload, std::uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.read_ratio = 0.5;
  wcfg.objects_per_node = 8;
  wcfg.max_nested = 3;
  wcfg.local_work = 0;
  auto wl = make_workload(workload, wcfg);

  runtime::ClusterConfig ccfg = quiet_cluster(3);
  ccfg.rpc.base_timeout = sim_ms(1000);
  ccfg.rpc.max_timeout = sim_ms(1000);
  runtime::Cluster cluster(ccfg);
  wl->setup(cluster);

  std::uint64_t digest = 14695981039346656037ull;
  const auto fold = [&](std::uint64_t v) { digest = (digest ^ v) * 1099511628211ull; };
  const auto& messages = cluster.network().stats().messages;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 100; ++i) {
    const auto node = static_cast<NodeId>(i % 3);
    cluster.network().wait_idle();
    const auto op = wl->next_op(node, rng);
    const std::uint64_t before = messages.load();
    const auto result = cluster.execute(node, op.profile, op.body);
    cluster.network().wait_idle();
    fold(op.profile);
    fold(op.is_read ? 1 : 0);
    fold(result.committed ? 1 : 0);
    fold(result.attempts);
    fold(messages.load() - before);
  }
  EXPECT_TRUE(wl->verify(cluster)) << workload << " seed " << seed;
  cluster.shutdown();
  return digest;
}

// Pins the op stream of the three set workloads: a change to the RNG draw
// order, to any object access or to any message moves a digest.
TEST(IntSetWorkloads, SequentialRunIsPinned) {
  struct Pin {
    const char* workload;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"linked-list", 1, 0x344895d79ac93e55ull},
      {"linked-list", 2, 0xadf3980fb5eda7a9ull},
      {"bst", 1, 0x87e42895d544ae59ull},
      {"bst", 2, 0xdb2a5f0cb31ddc37ull},
      {"rb-tree", 1, 0xb49c8bae6b5d23a1ull},
      {"rb-tree", 2, 0x9308712d528cadb7ull},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(sequential_digest(pin.workload, pin.seed), pin.digest)
        << pin.workload << " seed " << pin.seed;
  }
}

// ------------------------------------------------------------- vacation ----

TEST(Vacation, SetupPopulatesAllThreeKinds) {
  VacationWorkload vac(quick_config());
  runtime::Cluster cluster(quiet_cluster(4));
  vac.setup(cluster);
  EXPECT_TRUE(vac.verify(cluster));  // zero reservations, zero used
  // Count shards by kind across stores.
  std::map<ResourceKind, int> kinds;
  int customer_shards = 0;
  for (NodeId n = 0; n < 4; ++n) {
    for (const ObjectId oid : cluster.node(n).store().owned_ids()) {
      const auto snap = cluster.node(n).store().get(oid)->object;
      if (const auto* rs = dynamic_cast<const ResourceShard*>(snap.get())) {
        kinds[rs->kind()] += 1;
        EXPECT_FALSE(rs->items().empty());
      } else if (dynamic_cast<const CustomerShard*>(snap.get())) {
        ++customer_shards;
      }
    }
  }
  EXPECT_EQ(kinds.size(), 3u);
  EXPECT_GT(customer_shards, 0);
  cluster.shutdown();
}

TEST(Vacation, ReserveThenDeleteBalancesOut) {
  VacationWorkload vac(quick_config(0.0));
  runtime::Cluster cluster(quiet_cluster(3));
  vac.setup(cluster);
  Xoshiro256 rng(77);
  for (int i = 0; i < 80; ++i) {
    const auto op = vac.next_op(0, rng);
    ASSERT_TRUE(cluster.execute(0, op.profile, op.body).committed);
    ASSERT_TRUE(vac.verify(cluster)) << "reservation invariant broke after op " << i;
  }
  cluster.shutdown();
}

TEST(Vacation, VerifyCatchesPhantomReservation) {
  VacationWorkload vac(quick_config());
  runtime::Cluster cluster(quiet_cluster(2));
  vac.setup(cluster);
  // Bump `used` on some resource without a matching customer record.
  bool corrupted = false;
  for (NodeId n = 0; n < 2 && !corrupted; ++n) {
    for (const ObjectId oid : cluster.node(n).store().owned_ids()) {
      const auto slot = cluster.node(n).store().get(oid);
      auto forged = slot->object->clone();
      if (auto* rs = dynamic_cast<ResourceShard*>(forged.get());
          rs && !rs->items().empty()) {
        rs->items().begin()->second.used += 1;
        cluster.node(n).store().install(ObjectSnapshot{std::move(forged)}, slot->version);
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(vac.verify(cluster));
  cluster.shutdown();
}

}  // namespace
}  // namespace hyflow::workloads
