// Cross-module integration tests: every workload runs against a live
// multi-node cluster under load and passes its own invariant audit; the
// cluster-wide ownership invariant holds after quiesce; the scheduler paths
// (enqueue/hand-off/not-interested) are actually exercised.
#include <gtest/gtest.h>

#include <set>

#include "dsm/directory.hpp"
#include "runtime/experiment.hpp"
#include "workloads/registry.hpp"

namespace hyflow {
namespace {

runtime::ExperimentConfig small_experiment(const std::string& scheduler, double read_ratio) {
  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.scheduler.kind = scheduler;
  cfg.cluster.scheduler.cl_threshold = 6;
  cfg.cluster.topology.min_delay = sim_us(20);
  cfg.cluster.topology.max_delay = sim_us(500);
  cfg.warmup = sim_ms(40);
  cfg.measure = sim_ms(250);
  (void)read_ratio;
  return cfg;
}

workloads::WorkloadConfig small_workload(double read_ratio) {
  workloads::WorkloadConfig cfg;
  cfg.read_ratio = read_ratio;
  cfg.objects_per_node = 6;
  cfg.max_nested = 4;
  cfg.local_work = sim_us(100);
  return cfg;
}

// One test per (workload x scheduler): runs under load, must commit work
// and pass the workload's invariant audit.
struct WorkloadCase {
  std::string workload;
  std::string scheduler;
};

// gtest would otherwise print the case as raw bytes, including the strings'
// heap pointers, and ctest names each case after that print: the names
// would change from one build to the next.
void PrintTo(const WorkloadCase& c, std::ostream* os) {
  *os << c.workload << '/' << c.scheduler;
}

class WorkloadIntegration : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadIntegration, RunsAndVerifies) {
  const auto& param = GetParam();
  auto wl = workloads::make_workload(param.workload, small_workload(0.5));
  const auto result = runtime::run_experiment(*wl, small_experiment(param.scheduler, 0.5));
  EXPECT_GT(result.delta.commits_root, 0u) << "no transaction committed";
  EXPECT_TRUE(result.verified) << "invariant audit failed";
}

std::vector<WorkloadCase> all_cases() {
  std::vector<WorkloadCase> cases;
  for (const auto& wl : workloads::workload_names()) {
    for (const char* sched : {"rts", "tfa", "backoff"}) {
      cases.push_back(WorkloadCase{wl, sched});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsAllSchedulers, WorkloadIntegration,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<WorkloadCase>& info) {
                           std::string name =
                               info.param.workload + "_" + info.param.scheduler;
                           for (char& c : name)
                             if (c == '-' || c == '+') c = '_';
                           return name;
                         });

// ---------------------------------------------------- cluster invariants ----

TEST(ClusterInvariants, SingleOwnerAfterQuiesce) {
  auto wl = workloads::make_workload("bank", small_workload(0.2));
  runtime::ExperimentConfig cfg = small_experiment("rts", 0.2);

  runtime::Cluster cluster(cfg.cluster);
  wl->setup(cluster);
  cluster.start_workers(*wl);
  std::this_thread::sleep_for(to_chrono(sim_ms(250)));
  cluster.stop_workers();

  // Every object lives in exactly one store, and the directory points at it.
  std::set<std::uint64_t> seen;
  for (NodeId n = 0; n < cluster.size(); ++n) {
    for (const ObjectId oid : cluster.node(n).store().owned_ids()) {
      EXPECT_TRUE(seen.insert(oid.value).second)
          << "object " << oid.value << " owned by two stores";
      const NodeId home = dsm::home_node(oid, cluster.size());
      const auto dir_owner = cluster.node(home).directory().lookup(oid);
      ASSERT_TRUE(dir_owner.has_value());
      EXPECT_EQ(*dir_owner, n) << "directory stale for object " << oid.value;
      // No lock survives quiesce.
      EXPECT_FALSE(cluster.node(n).store().get(oid)->locked_by.valid());
    }
  }
  EXPECT_TRUE(wl->verify(cluster));
  cluster.shutdown();
}

TEST(ClusterInvariants, MetricsAreConsistent) {
  auto wl = workloads::make_workload("bank", small_workload(0.1));
  const auto result = runtime::run_experiment(*wl, small_experiment("rts", 0.1));
  const auto& d = result.delta;
  EXPECT_GT(d.commits_root, 0u);
  EXPECT_EQ(d.commits_root, d.commits_read_only + d.commits_write);
  // Parent-cause + own-cause == total nested aborts.
  EXPECT_EQ(d.nested_aborts_total, d.nested_aborts_parent_cause + d.nested_aborts_own_cause);
  // Hand-offs can't exceed enqueues (plus pre-window stragglers; windowed
  // counters make this approximate, so allow slack of the enqueue count).
  EXPECT_LE(d.handoffs_received, d.enqueued + d.handoffs_sent);
  EXPECT_TRUE(result.verified);
}

TEST(ClusterInvariants, RtsExercisesSchedulerPaths) {
  // Write-heavy bank on few objects must drive enqueues and hand-offs.
  auto wcfg = small_workload(0.05);
  wcfg.objects_per_node = 3;
  auto wl = workloads::make_workload("bank", wcfg);
  auto cfg = small_experiment("rts", 0.05);
  cfg.cluster.scheduler.cl_threshold = 8;
  const auto result = runtime::run_experiment(*wl, cfg);
  EXPECT_GT(result.delta.conflicts_seen, 0u);
  EXPECT_GT(result.delta.enqueued, 0u);
  EXPECT_GT(result.delta.handoffs_received, 0u);
  EXPECT_TRUE(result.verified);
}

TEST(ClusterInvariants, TfaNeverEnqueues) {
  auto wl = workloads::make_workload("bank", small_workload(0.1));
  const auto result = runtime::run_experiment(*wl, small_experiment("tfa", 0.1));
  EXPECT_EQ(result.delta.enqueued, 0u);
  EXPECT_EQ(result.delta.handoffs_received, 0u);
  EXPECT_TRUE(result.verified);
}

TEST(ClusterInvariants, ReadOnlyWorkloadCommitsFreely) {
  auto wl = workloads::make_workload("dht", small_workload(1.0));
  const auto result = runtime::run_experiment(*wl, small_experiment("rts", 1.0));
  EXPECT_GT(result.delta.commits_root, 0u);
  EXPECT_EQ(result.delta.commits_write, 0u);
  // Pure readers never lock, so nothing conflicts.
  EXPECT_EQ(result.delta.conflicts_seen, 0u);
  EXPECT_TRUE(result.verified);
}

TEST(ClusterInvariants, QueueResidueDrainsAfterStop) {
  // A stopping worker finishes its transaction, so each parked requester is
  // granted or withdraws before the workers are joined, and a withdrawal
  // follows its queue through hand-offs: no entry outlives the workers.
  for (const char* scheduler : {"rts", "bi-interval", "greedy", "karma", "steal-on-abort"}) {
    SCOPED_TRACE(scheduler);
    auto wcfg = small_workload(0.05);
    wcfg.objects_per_node = 3;
    auto wl = workloads::make_workload("bank", wcfg);
    const auto result = runtime::run_experiment(*wl, small_experiment(scheduler, 0.05));
    EXPECT_EQ(result.queue_residue, 0u);
  }
}

TEST(ClusterInvariants, ThroughputScalesWithNodes) {
  // Sanity, not a benchmark: more nodes => more aggregate commits under the
  // mostly-read mix.
  auto run_nodes = [&](std::uint32_t nodes) {
    auto wl = workloads::make_workload("dht", small_workload(0.9));
    auto cfg = small_experiment("rts", 0.9);
    cfg.cluster.nodes = nodes;
    return runtime::run_experiment(*wl, cfg).throughput;
  };
  const double t2 = run_nodes(2);
  const double t8 = run_nodes(8);
  EXPECT_GT(t8, t2);
}

}  // namespace
}  // namespace hyflow
