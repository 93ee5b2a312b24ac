// Unit tests for the runtime layer: metrics snapshot algebra, cluster
// construction/placement/audit helpers, worker lifecycle, the experiment
// harness, and shutdown robustness (repeated cycles, shutdown under load).
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "dsm/directory.hpp"
#include "runtime/experiment.hpp"
#include "workloads/registry.hpp"

namespace hyflow::runtime {
namespace {

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

// -------------------------------------------------------------- metrics ----

TEST(Metrics, SnapshotReflectsCounters) {
  NodeMetrics metrics;
  metrics.add_commit(/*read_only=*/true);
  metrics.add_commit(/*read_only=*/false);
  metrics.add_root_abort(tfa::AbortCause::kSchedulerDenied);
  metrics.add_root_abort(tfa::AbortCause::kEarlyValidation);
  metrics.add(Counter::nested_commits);
  metrics.add_nested_abort(/*parent_cause=*/true, 3);
  metrics.add_nested_abort(/*parent_cause=*/false);
  metrics.add(Counter::enqueued);
  metrics.add(Counter::handoffs_received);

  const auto s = metrics.snapshot();
  EXPECT_EQ(s.commits_root, 2u);
  EXPECT_EQ(s.commits_read_only, 1u);
  EXPECT_EQ(s.commits_write, 1u);
  EXPECT_EQ(s.aborts_total(), 2u);
  EXPECT_EQ(s.nested_commits, 1u);
  EXPECT_EQ(s.nested_aborts_total, 4u);
  EXPECT_EQ(s.nested_aborts_parent_cause, 3u);
  EXPECT_EQ(s.nested_aborts_own_cause, 1u);
  EXPECT_DOUBLE_EQ(s.nested_abort_rate(), 0.75);
  EXPECT_EQ(s.enqueued, 1u);
}

TEST(Metrics, SnapshotDifference) {
  NodeMetrics metrics;
  metrics.add_commit(false);
  const auto before = metrics.snapshot();
  metrics.add_commit(false);
  metrics.add_commit(true);
  metrics.add_root_abort(tfa::AbortCause::kLockConflict);
  const auto delta = metrics.snapshot() - before;
  EXPECT_EQ(delta.commits_root, 2u);
  EXPECT_EQ(delta.aborts_total(), 1u);
}

TEST(Metrics, SnapshotSum) {
  MetricsSnapshot a, b;
  a.commits_root = 3;
  a.nested_aborts_total = 2;
  b.commits_root = 4;
  b.nested_aborts_total = 5;
  a += b;
  EXPECT_EQ(a.commits_root, 7u);
  EXPECT_EQ(a.nested_aborts_total, 7u);
}

// Every listed counter through every operation: add, snapshot, sum,
// difference and the saturating reversed difference. Counter i holds i + 1
// so a field mapped to the wrong slot shows.
TEST(Metrics, EveryListedCounterThroughEveryOperation) {
  NodeMetrics metrics;
  for (std::size_t i = 0; i < kCounterCount; ++i) metrics.add(static_cast<Counter>(i), i + 1);
  const MetricsSnapshot a = metrics.snapshot();
  MetricsSnapshot doubled = a;
  doubled += doubled;
  MetricsSnapshot b;
  for (std::size_t i = 0; i < kCounterCount; ++i) b.*kCounterFields[i].field = 100 * (i + 1);
  MetricsSnapshot sum = a;
  sum += b;
  const MetricsSnapshot round_trip = sum - b;
  const MetricsSnapshot reversed = b - sum;
#define EXPECT_COUNTER(counter)                                               \
  {                                                                           \
    const std::uint64_t v = static_cast<std::uint64_t>(Counter::counter) + 1; \
    EXPECT_STREQ(kCounterFields[v - 1].name, #counter);                       \
    EXPECT_EQ(a.counter, v) << #counter;                                      \
    EXPECT_EQ(doubled.counter, 2 * v) << #counter;                            \
    EXPECT_EQ(round_trip.counter, v) << #counter;                             \
    EXPECT_EQ(reversed.counter, 0u) << #counter;                              \
  }
  HYFLOW_NODE_COUNTERS(EXPECT_COUNTER)
#undef EXPECT_COUNTER
}

TEST(Metrics, EmptyNestedAbortRateIsZero) {
  MetricsSnapshot s;
  EXPECT_DOUBLE_EQ(s.nested_abort_rate(), 0.0);
}

// -------------------------------------------------------------- cluster ----

ClusterConfig tiny_cluster(std::uint32_t nodes = 3) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_us(1);
  cfg.topology.max_delay = sim_us(30);
  return cfg;
}

TEST(Cluster, CreateObjectPlacesStoreAndDirectory) {
  Cluster cluster(tiny_cluster());
  const ObjectId oid{900};
  cluster.create_object(std::make_unique<Box>(oid, 5), /*owner=*/2);
  EXPECT_TRUE(cluster.node(2).store().owns(oid));
  const NodeId home = dsm::home_node(oid, cluster.size());
  EXPECT_EQ(cluster.node(home).directory().lookup(oid).value(), 2u);
  cluster.shutdown();
}

TEST(Cluster, CommittedCopyFollowsOwnership) {
  Cluster cluster(tiny_cluster());
  const ObjectId oid{901};
  cluster.create_object(std::make_unique<Box>(oid, 1), 0);
  ASSERT_TRUE(cluster.execute(1, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value = 42;
  }).committed);
  const auto snap = cluster.committed_copy(oid);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(object_cast<Box>(*snap).value, 42);
  EXPECT_EQ(cluster.committed_copy(ObjectId{999}), nullptr);
  cluster.shutdown();
}

TEST(Cluster, ExecuteFromEveryNode) {
  Cluster cluster(tiny_cluster(4));
  const ObjectId oid{902};
  cluster.create_object(std::make_unique<Box>(oid, 0), 3);
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_TRUE(cluster.execute(n, 1, [&](tfa::Txn& tx) {
      tx.write<Box>(oid).value += 1;
    }).committed);
  }
  EXPECT_EQ(object_cast<Box>(*cluster.committed_copy(oid)).value, 4);
  cluster.shutdown();
}

// A cluster without workers starts exactly one thread of its own: the
// network's dispatcher, which runs every handler and the grant sweep.
TEST(Cluster, StartsOneThreadOfItsOwn) {
  const auto threads = [] {
    std::error_code ec;
    std::ptrdiff_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
         it.increment(ec))
      ++n;
    return ec ? -1 : n;
  };
  const auto before = threads();
  if (before <= 0) GTEST_SKIP() << "no /proc/self/task to count threads in";
  Cluster cluster(tiny_cluster(4));
  EXPECT_EQ(threads() - before, 1);
  cluster.shutdown();
}

TEST(Cluster, ShutdownIsIdempotent) {
  Cluster cluster(tiny_cluster());
  cluster.shutdown();
  cluster.shutdown();  // second call must be a no-op
}

TEST(Cluster, RepeatedWorkerCycles) {
  auto wl = workloads::make_workload("dht", [] {
    workloads::WorkloadConfig c;
    c.local_work = 0;
    return c;
  }());
  ClusterConfig cfg = tiny_cluster(3);
  cfg.workers_per_node = 2;
  Cluster cluster(cfg);
  wl->setup(cluster);
  for (int cycle = 0; cycle < 3; ++cycle) {
    cluster.start_workers(*wl);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cluster.stop_workers();
    EXPECT_TRUE(wl->verify(cluster)) << "cycle " << cycle;
  }
  EXPECT_GT(cluster.total_metrics().commits_root, 0u);
  cluster.shutdown();
}

TEST(Cluster, ShutdownUnderLoadIsSafe) {
  // Shut down abruptly while workers are mid-transaction: no hang, no crash.
  auto wl = workloads::make_workload("bank", [] {
    workloads::WorkloadConfig c;
    c.read_ratio = 0.1;
    return c;
  }());
  ClusterConfig cfg = tiny_cluster(4);
  cfg.workers_per_node = 2;
  Cluster cluster(cfg);
  wl->setup(cluster);
  cluster.start_workers(*wl);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.shutdown();  // includes worker stop + pending-call cut
}

TEST(Cluster, MergedLatencyPopulatedAfterStop) {
  auto wl = workloads::make_workload("dht", [] {
    workloads::WorkloadConfig c;
    c.local_work = 0;
    return c;
  }());
  ClusterConfig cfg = tiny_cluster(2);
  cfg.workers_per_node = 1;
  Cluster cluster(cfg);
  wl->setup(cluster);
  cluster.start_workers(*wl);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  cluster.stop_workers();
  const Histogram latency = cluster.total_metrics().latency;
  EXPECT_GT(latency.count(), 0u);
  EXPECT_GT(latency.value_at_percentile(50), 0u);
  cluster.shutdown();
}

TEST(Cluster, TwoWorkloadsCoexist) {
  // Id spaces are disjoint: bank and dht can share one cluster.
  workloads::WorkloadConfig c;
  c.local_work = 0;
  auto bank = workloads::make_workload("bank", c);
  auto dht = workloads::make_workload("dht", c);
  Cluster cluster(tiny_cluster(3));
  bank->setup(cluster);
  dht->setup(cluster);
  Xoshiro256 rng(3);
  for (int i = 0; i < 20; ++i) {
    const auto op_a = bank->next_op(0, rng);
    const auto op_b = dht->next_op(1, rng);
    ASSERT_TRUE(cluster.execute(0, op_a.profile, op_a.body).committed);
    ASSERT_TRUE(cluster.execute(1, op_b.profile, op_b.body).committed);
  }
  EXPECT_TRUE(bank->verify(cluster));
  EXPECT_TRUE(dht->verify(cluster));
  cluster.shutdown();
}

// ----------------------------------------------------------- experiment ----

TEST(Experiment, ProducesConsistentResult) {
  auto wl = workloads::make_workload("dht", [] {
    workloads::WorkloadConfig c;
    c.read_ratio = 0.5;
    c.local_work = 0;
    return c;
  }());
  ExperimentConfig cfg;
  cfg.cluster = tiny_cluster(3);
  cfg.cluster.workers_per_node = 2;
  cfg.warmup = sim_ms(30);
  cfg.measure = sim_ms(120);
  const auto result = run_experiment(*wl, cfg);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.delta.commits_root, 0u);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.messages, result.delta.commits_root);  // >1 message per txn
  EXPECT_FALSE(result.summary().empty());
  // Throughput must equal window commits / window seconds (approximately;
  // the window is wall-clock measured).
  const double implied =
      result.throughput * 0.12;  // measure = 120 ms
  EXPECT_NEAR(implied, static_cast<double>(result.delta.commits_root),
              static_cast<double>(result.delta.commits_root) * 0.25 + 2);
}

TEST(Experiment, RunResultAttemptsCounted) {
  Cluster cluster(tiny_cluster(2));
  const ObjectId oid{903};
  cluster.create_object(std::make_unique<Box>(oid, 0), 0);
  int tries = 0;
  const auto result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value += 1;
    if (++tries < 3) tx.retry();
  });
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_GT(result.latency, 0);
  cluster.shutdown();
}

}  // namespace
}  // namespace hyflow::runtime
