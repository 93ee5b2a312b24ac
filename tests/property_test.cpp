// Property-based suites (parameterised gtest):
//  * Bank conservation holds for every (scheduler x read-ratio x node-count)
//    point — the repository's strongest opacity check.
//  * Data structures match a sequential oracle under a single worker.
//  * RTS decision invariants hold across randomised conflict streams.
#include <gtest/gtest.h>

#include <set>

#include "core/scheduler.hpp"
#include "runtime/experiment.hpp"
#include "workloads/bank.hpp"
#include "workloads/bst.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/rbtree.hpp"
#include "workloads/registry.hpp"

namespace hyflow {
namespace {

// ------------------------------------------- Bank conservation sweep -------

struct ConservationPoint {
  std::string scheduler;
  double read_ratio;
  std::uint32_t nodes;
};

// gtest would otherwise print the point as raw bytes, including the string's
// heap pointer, and ctest names each case after that print: the names would
// change from one build to the next.
void PrintTo(const ConservationPoint& p, std::ostream* os) {
  *os << p.scheduler << " rr=" << p.read_ratio << " nodes=" << p.nodes;
}

class BankConservation : public ::testing::TestWithParam<ConservationPoint> {};

TEST_P(BankConservation, TotalBalanceInvariant) {
  const auto& p = GetParam();
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = p.read_ratio;
  wcfg.objects_per_node = 5;
  wcfg.local_work = sim_us(50);
  workloads::BankWorkload bank(wcfg);

  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = p.nodes;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.scheduler.kind = p.scheduler;
  cfg.cluster.topology.min_delay = sim_us(20);
  cfg.cluster.topology.max_delay = sim_us(400);
  cfg.warmup = sim_ms(30);
  cfg.measure = sim_ms(200);

  const auto result = runtime::run_experiment(bank, cfg);
  EXPECT_TRUE(result.verified) << "conservation violated at " << p.scheduler << " rr="
                               << p.read_ratio << " nodes=" << p.nodes;
  EXPECT_GT(result.delta.commits_root, 0u);
}

std::vector<ConservationPoint> conservation_points() {
  std::vector<ConservationPoint> points;
  for (const char* sched : {"rts", "tfa", "backoff"}) {
    for (double rr : {0.1, 0.9}) {
      for (std::uint32_t nodes : {2u, 6u}) {
        points.push_back(ConservationPoint{sched, rr, nodes});
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BankConservation, ::testing::ValuesIn(conservation_points()),
                         [](const ::testing::TestParamInfo<ConservationPoint>& info) {
                           std::string name = info.param.scheduler + "_rr" +
                                              std::to_string(int(info.param.read_ratio * 100)) +
                                              "_n" + std::to_string(info.param.nodes);
                           for (char& c : name)
                             if (c == '-' || c == '+') c = '_';
                           return name;
                         });

// -------------------------------------- sequential oracle equivalence ------

// Runs a workload's ops from a single worker on a single thread and checks
// the structure tracks a std::set oracle exactly. Catches data-structure
// logic bugs (traversal, linking, rebalancing) independent of concurrency.
template <typename WorkloadT>
void run_oracle_test(std::uint64_t seed) {
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = 0.0;
  wcfg.objects_per_node = 8;
  wcfg.max_nested = 3;
  wcfg.local_work = 0;
  wcfg.seed = seed;
  WorkloadT wl(wcfg);

  runtime::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.workers_per_node = 0;
  ccfg.topology.min_delay = sim_us(1);
  ccfg.topology.max_delay = sim_us(20);
  runtime::Cluster cluster(ccfg);
  wl.setup(cluster);

  Xoshiro256 rng(seed);
  for (int i = 0; i < 120; ++i) {
    auto op = wl.next_op(0, rng);
    ASSERT_TRUE(cluster.execute(0, op.profile, op.body).committed);
    ASSERT_TRUE(wl.verify(cluster)) << "structural audit failed after op " << i;
  }
  cluster.shutdown();
}

TEST(SequentialOracle, LinkedListStructureHolds) {
  run_oracle_test<workloads::LinkedListWorkload>(101);
}
TEST(SequentialOracle, LinkedListStructureHoldsSeed2) {
  run_oracle_test<workloads::LinkedListWorkload>(202);
}
TEST(SequentialOracle, BstStructureHolds) { run_oracle_test<workloads::BstWorkload>(303); }
TEST(SequentialOracle, BstStructureHoldsSeed2) {
  run_oracle_test<workloads::BstWorkload>(404);
}
TEST(SequentialOracle, RbTreeInvariantsHold) {
  run_oracle_test<workloads::RbTreeWorkload>(505);
}
TEST(SequentialOracle, RbTreeInvariantsHoldSeed2) {
  run_oracle_test<workloads::RbTreeWorkload>(606);
}

// Exact membership oracle for the linked list: every add/remove/contains is
// mirrored against a std::set and membership answers must agree throughout.
TEST(SequentialOracle, LinkedListMatchesSetOracle) {
  workloads::WorkloadConfig wcfg;
  wcfg.objects_per_node = 8;
  wcfg.local_work = 0;
  workloads::LinkedListWorkload wl(wcfg);

  runtime::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.workers_per_node = 0;
  ccfg.topology.min_delay = sim_us(1);
  ccfg.topology.max_delay = sim_us(20);
  runtime::Cluster cluster(ccfg);
  wl.setup(cluster);

  // Oracle starts with the even keys (initial list contents).
  std::set<std::int64_t> oracle;
  for (std::size_t k = 0; k < wl.universe(); k += 2)
    oracle.insert(static_cast<std::int64_t>(k));

  Xoshiro256 rng(99);
  for (int i = 0; i < 200; ++i) {
    const auto key = static_cast<std::int64_t>(rng.below(wl.universe()));
    const int action = static_cast<int>(rng.below(3));
    bool found = false;
    ASSERT_TRUE(cluster
                    .execute(0, 1,
                             [&](tfa::Txn& tx) {
                               tx.nested([&](tfa::Txn& child) {
                                 switch (action) {
                                   case 0: wl.insert(child, key); break;
                                   case 1: wl.remove(child, key); break;
                                   default: found = wl.contains(child, key); break;
                                 }
                               });
                             })
                    .committed);
    switch (action) {
      case 0: oracle.insert(key); break;
      case 1: oracle.erase(key); break;
      default: EXPECT_EQ(found, oracle.count(key) > 0) << "key " << key << " op " << i; break;
    }
  }
  // Final full-membership sweep.
  for (std::size_t k = 0; k < wl.universe(); ++k) {
    bool present = false;
    ASSERT_TRUE(cluster
                    .execute(1, 2,
                             [&](tfa::Txn& tx) {
                               present = wl.contains(tx, static_cast<std::int64_t>(k));
                             })
                    .committed);
    EXPECT_EQ(present, oracle.count(static_cast<std::int64_t>(k)) > 0) << "key " << k;
  }
  EXPECT_TRUE(wl.verify(cluster));
  cluster.shutdown();
}


// ------------------------------------------- vacation delete/reserve race --

// Regression for a double-release bug: concurrent delete_customer and
// make_reservation on a tiny customer population must never drive a
// resource's `used` negative (the stale-accumulator-across-child-retry bug
// found by the bench sweep).
TEST(VacationRace, ConcurrentDeleteAndReserveKeepInvariant) {
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = 0.0;   // writes only: reserve/delete/update mix
  wcfg.objects_per_node = 4;
  wcfg.local_work = sim_us(20);
  auto vac = workloads::make_workload("vacation", wcfg);

  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.workers_per_node = 3;
  cfg.cluster.scheduler.kind = "rts";
  cfg.cluster.topology.min_delay = sim_us(10);
  cfg.cluster.topology.max_delay = sim_us(200);
  cfg.warmup = sim_ms(30);
  cfg.measure = sim_ms(300);
  const auto result = runtime::run_experiment(*vac, cfg);
  EXPECT_GT(result.delta.commits_root, 0u);
  EXPECT_TRUE(result.verified) << "vacation used/reservation invariant violated";
}


// Membership oracles for the trees, mirroring the linked-list oracle: every
// mutation is mirrored into a std::set and membership must agree throughout,
// while the structural verifier (order/colour/black-height) stays green.
template <typename TreeT>
void run_tree_membership_oracle(std::uint64_t seed) {
  workloads::WorkloadConfig wcfg;
  wcfg.objects_per_node = 8;
  wcfg.local_work = 0;
  TreeT tree(wcfg);

  runtime::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.workers_per_node = 0;
  ccfg.topology.min_delay = sim_us(1);
  ccfg.topology.max_delay = sim_us(20);
  runtime::Cluster cluster(ccfg);
  tree.setup(cluster);

  std::set<std::int64_t> oracle;
  for (std::size_t k = 0; k < tree.universe(); k += 2)
    oracle.insert(static_cast<std::int64_t>(k));

  Xoshiro256 rng(seed);
  for (int i = 0; i < 250; ++i) {
    const auto key = static_cast<std::int64_t>(rng.below(tree.universe()));
    const int action = static_cast<int>(rng.below(3));
    bool found = false;
    ASSERT_TRUE(cluster
                    .execute(0, 1,
                             [&](tfa::Txn& tx) {
                               switch (action) {
                                 case 0: tree.insert(tx, key); break;
                                 case 1: tree.remove(tx, key); break;
                                 default: found = tree.contains(tx, key); break;
                               }
                             })
                    .committed);
    switch (action) {
      case 0: oracle.insert(key); break;
      case 1: oracle.erase(key); break;
      default:
        EXPECT_EQ(found, oracle.count(key) > 0) << "key " << key << " op " << i;
        break;
    }
    if (i % 25 == 0) {
      ASSERT_TRUE(tree.verify(cluster)) << "after op " << i;
    }
  }
  EXPECT_TRUE(tree.verify(cluster));
  cluster.shutdown();
}

TEST(SequentialOracle, BstMatchesSetOracle) {
  run_tree_membership_oracle<workloads::BstWorkload>(911);
}
TEST(SequentialOracle, RbTreeMatchesSetOracle) {
  run_tree_membership_oracle<workloads::RbTreeWorkload>(912);
}
TEST(SequentialOracle, RbTreeMatchesSetOracleSeed2) {
  run_tree_membership_oracle<workloads::RbTreeWorkload>(913);
}

// --------------------------------------------- RTS decision properties -----

TEST(RtsProperties, QueueBoundedByThresholdUnderRandomStream) {
  core::SchedulerConfig cfg;
  cfg.kind = "rts";
  cfg.cl_threshold = 5;
  cfg.handoff_slack = sim_ms(1);
  core::Scheduler rts(cfg);

  Xoshiro256 rng(7);
  std::uint64_t enqueues = 0, aborts = 0;
  for (int i = 0; i < 5000; ++i) {
    core::ConflictContext ctx;
    const auto oid = ObjectId{1 + rng.below(4)};
    ctx.oid = oid;
    ctx.requester_node = static_cast<NodeId>(rng.below(8));
    ctx.request_msg_id = static_cast<std::uint64_t>(i) + 1;
    ctx.request.oid = oid;
    ctx.request.txid = TxnId{1 + rng.below(64)};
    ctx.request.mode = rng.chance(0.3) ? net::AccessMode::kRead : net::AccessMode::kWrite;
    ctx.request.requester_cl = static_cast<std::uint32_t>(rng.below(8));
    ctx.request.ets.start = 1000000;
    ctx.request.ets.request = 1000000 + static_cast<SimDuration>(rng.below(sim_ms(40)));
    ctx.request.ets.expected_commit = ctx.request.ets.request + sim_ms(2);
    ctx.validator_remaining = static_cast<SimDuration>(rng.below(sim_ms(3)));
    ctx.now = ctx.request.ets.request;

    const auto d = rts.on_conflict(ctx);
    if (d.action == core::ConflictAction::kEnqueue) {
      ++enqueues;
      EXPECT_GE(d.backoff, ctx.validator_remaining);
    } else {
      ++aborts;
      EXPECT_EQ(d.backoff, 0);
    }
    // Property: per-object cumulative queue CL never exceeds the threshold,
    // so queues stay shallow by construction.
    EXPECT_LE(rts.queue_depth(oid), 16u);
    if (rng.chance(0.05)) (void)rts.on_object_available(oid);  // drain sometimes
    if (rng.chance(0.02)) (void)rts.extract_queue(oid);
  }
  EXPECT_GT(enqueues, 0u);
  EXPECT_GT(aborts, 0u);
}

TEST(RtsProperties, WorkConservingHandoff) {
  // Whatever mix is queued, repeatedly popping head groups drains the queue
  // completely and never returns an empty group while non-empty.
  core::SchedulerConfig cfg;
  cfg.kind = "rts";
  cfg.cl_threshold = 100;
  core::Scheduler rts(cfg);
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < n; ++i) {
      core::ConflictContext ctx;
      ctx.oid = ObjectId{9};
      ctx.request.oid = ObjectId{9};
      ctx.request.txid = TxnId{static_cast<std::uint64_t>(trial * 100 + i + 1)};
      ctx.request.mode = rng.chance(0.5) ? net::AccessMode::kRead : net::AccessMode::kWrite;
      ctx.request.ets.start = 1;
      ctx.request.ets.request = 1 + sim_ms(100);
      ctx.request.ets.expected_commit = ctx.request.ets.request + sim_ms(1);
      ctx.request_msg_id = static_cast<std::uint64_t>(trial * 100 + i + 1);
      ASSERT_EQ(rts.on_conflict(ctx).action, core::ConflictAction::kEnqueue);
    }
    std::size_t drained = 0;
    while (rts.queue_depth(ObjectId{9}) > 0) {
      const auto group = rts.on_object_available(ObjectId{9});
      ASSERT_FALSE(group.empty());
      // Group is homogeneous: one writer, or all readers.
      if (group.size() > 1) {
        for (const auto& g : group) EXPECT_EQ(g.mode, net::AccessMode::kRead);
      }
      drained += group.size();
    }
    EXPECT_EQ(drained, static_cast<std::size_t>(n));
  }
}

}  // namespace
}  // namespace hyflow
