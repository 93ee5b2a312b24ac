// Chaos suite: the protocol under an adversarial network.
//
// Unit tests pin down the fault injector's mechanics (every fault class,
// window arithmetic, and the determinism guarantee: identical message
// streams + identical seed => identical injected faults). The chaos runs
// then drive the bank workload through drop + duplication + a node
// crash/recovery window and assert the two properties that matter:
// liveness (the run finishes well before a hard deadline — no wedged locks,
// no stranded queues) and safety (exact balance conservation). The
// long-window runs darken a node, or cut the cluster, for many times any
// retry budget, and check that every request resent until answered leaves
// one unlocked owner per object, named by its directory. A lookup whose home
// node stays dark past its budget aborts as a watchdog and retries.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "dsm/directory.hpp"
#include "net/fault_injector.hpp"
#include "net/message.hpp"
#include "quiesce_audit.hpp"
#include "runtime/experiment.hpp"
#include "workloads/bank.hpp"

namespace hyflow {
namespace {

net::Message make_msg(std::uint64_t id, NodeId from, NodeId to) {
  net::Message m;
  m.msg_id = id;
  m.from = from;
  m.to = to;
  m.payload = net::FindOwnerRequest{ObjectId{id}};
  return m;
}

// ------------------------------------------------- injector mechanics ------

TEST(FaultInjector, DropAllLosesEveryMessage) {
  net::FaultPlan plan;
  plan.drop = 1.0;
  net::FaultInjector inj(plan);
  inj.arm(0);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto fate = inj.on_send(make_msg(id, 0, 1), 0);
    EXPECT_FALSE(fate.deliver);
  }
  EXPECT_EQ(inj.stats().dropped.load(), 100u);
  EXPECT_EQ(inj.stats().duplicated.load(), 0u);
}

TEST(FaultInjector, DuplicateAllFlagsEveryMessage) {
  net::FaultPlan plan;
  plan.duplicate = 1.0;
  net::FaultInjector inj(plan);
  inj.arm(0);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto fate = inj.on_send(make_msg(id, 0, 1), 0);
    EXPECT_TRUE(fate.deliver);
    EXPECT_TRUE(fate.duplicate);
  }
  EXPECT_EQ(inj.stats().duplicated.load(), 100u);
}

TEST(FaultInjector, DelaySpikesAreBoundedAndCounted) {
  net::FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_spike = sim_ms(2);
  net::FaultInjector inj(plan);
  inj.arm(0);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto fate = inj.on_send(make_msg(id, 0, 1), 0);
    EXPECT_TRUE(fate.deliver);
    EXPECT_GT(fate.extra_delay, 0);
    EXPECT_LE(fate.extra_delay, sim_ms(2) + 1);
  }
  EXPECT_EQ(inj.stats().delayed.load(), 100u);
}

TEST(FaultInjector, CrashWindowDarkensNodeBothDirections) {
  net::FaultPlan plan;
  plan.crashes.push_back({/*node=*/1, /*start=*/sim_ms(10), /*end=*/sim_ms(20)});
  net::FaultInjector inj(plan);
  inj.arm(sim_ms(1000));  // windows are offsets from the arm epoch

  // Before the window.
  EXPECT_TRUE(inj.on_send(make_msg(1, 0, 1), sim_ms(1005)).deliver);
  // Inside: messages to and from the dark node are lost.
  EXPECT_FALSE(inj.on_send(make_msg(2, 0, 1), sim_ms(1015)).deliver);
  EXPECT_FALSE(inj.on_send(make_msg(3, 1, 0), sim_ms(1015)).deliver);
  // Unrelated links keep working.
  EXPECT_TRUE(inj.on_send(make_msg(4, 0, 2), sim_ms(1015)).deliver);
  // Recovery: the window is half-open.
  EXPECT_TRUE(inj.on_send(make_msg(5, 0, 1), sim_ms(1020)).deliver);
  EXPECT_EQ(inj.stats().crash_dropped.load(), 2u);
}

TEST(FaultInjector, PartitionWindowCutsTheCluster) {
  net::FaultPlan plan;
  plan.partitions.push_back({/*start=*/sim_ms(0), /*end=*/sim_ms(10), /*cut=*/2});
  net::FaultInjector inj(plan);
  inj.arm(0);

  // Crossing the cut (0,1 | 2,3) is dropped; same-side traffic flows.
  EXPECT_FALSE(inj.on_send(make_msg(1, 0, 2), sim_ms(5)).deliver);
  EXPECT_FALSE(inj.on_send(make_msg(2, 3, 1), sim_ms(5)).deliver);
  EXPECT_TRUE(inj.on_send(make_msg(3, 0, 1), sim_ms(5)).deliver);
  EXPECT_TRUE(inj.on_send(make_msg(4, 2, 3), sim_ms(5)).deliver);
  // Healed after the window.
  EXPECT_TRUE(inj.on_send(make_msg(5, 0, 2), sim_ms(10)).deliver);
  EXPECT_EQ(inj.stats().partition_dropped.load(), 2u);
}

TEST(FaultInjector, SameSeedSameStreamInjectsIdenticalFaults) {
  // The acceptance property behind --fault-seed: per-message decisions are
  // pure functions of (msg_id, seed), so identical streams produce
  // identical fault counts AND identical per-message fates.
  net::FaultPlan plan;
  plan.drop = 0.1;
  plan.duplicate = 0.05;
  plan.delay = 0.2;
  plan.seed = 12345;
  net::FaultInjector a(plan);
  net::FaultInjector b(plan);
  a.arm(0);
  b.arm(0);

  for (std::uint64_t id = 1; id <= 5000; ++id) {
    const auto fa = a.on_send(make_msg(id, id % 4, (id + 1) % 4), 0);
    const auto fb = b.on_send(make_msg(id, id % 4, (id + 1) % 4), 0);
    ASSERT_EQ(fa.deliver, fb.deliver) << "msg " << id;
    ASSERT_EQ(fa.duplicate, fb.duplicate) << "msg " << id;
    ASSERT_EQ(fa.extra_delay, fb.extra_delay) << "msg " << id;
  }
  EXPECT_EQ(a.stats().dropped.load(), b.stats().dropped.load());
  EXPECT_EQ(a.stats().duplicated.load(), b.stats().duplicated.load());
  EXPECT_EQ(a.stats().delayed.load(), b.stats().delayed.load());
  EXPECT_GT(a.stats().total(), 0u);  // the plan actually fired
}

TEST(FaultInjector, LastWindowEndSpansBothKinds) {
  net::FaultPlan plan;
  EXPECT_EQ(plan.last_window_end(), 0);
  plan.crashes.push_back({/*node=*/1, /*start=*/sim_ms(10), /*end=*/sim_ms(30)});
  plan.partitions.push_back({/*start=*/sim_ms(0), /*end=*/sim_ms(20), /*cut=*/2});
  EXPECT_EQ(plan.last_window_end(), sim_ms(30));
}

TEST(FaultInjector, DifferentSeedInjectsDifferentPattern) {
  net::FaultPlan plan;
  plan.drop = 0.5;
  plan.seed = 1;
  net::FaultPlan other = plan;
  other.seed = 2;
  net::FaultInjector a(plan);
  net::FaultInjector b(other);
  a.arm(0);
  b.arm(0);

  bool diverged = false;
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    const bool da = a.on_send(make_msg(id, 0, 1), 0).deliver;
    const bool db = b.on_send(make_msg(id, 0, 1), 0).deliver;
    diverged = diverged || (da != db);
  }
  EXPECT_TRUE(diverged);
}

// ------------------------------------------------------- chaos runs --------

// The bank workload of every chaos run: 20% reads over 5 accounts per node.
workloads::WorkloadConfig chaos_bank() {
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = 0.2;
  wcfg.objects_per_node = 5;
  wcfg.local_work = sim_us(50);
  return wcfg;
}

// The cluster of every chaos run: 4 nodes of 2 workers over 20-400 us links.
runtime::ClusterConfig chaos_cluster(const net::FaultPlan& plan,
                                     const std::string& scheduler) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 2;
  cfg.scheduler.kind = scheduler;
  cfg.topology.min_delay = sim_us(20);
  cfg.topology.max_delay = sim_us(400);
  cfg.fault = plan;
  return cfg;
}

// Runs the bank workload under `plan` with a hard liveness deadline: the
// run must finish — commit transactions, quiesce, shut down — long before
// the deadline, and the balance total must be exactly conserved. A failed
// check prints the scheduler, the fault seed and the cluster report.
void run_bank_chaos(const net::FaultPlan& plan, SimDuration warmup, SimDuration measure,
                    const std::string& scheduler = "rts") {
  SCOPED_TRACE("scheduler " + scheduler + ", fault seed " + std::to_string(plan.seed));
  workloads::BankWorkload bank(chaos_bank());

  runtime::ExperimentConfig cfg;
  cfg.cluster = chaos_cluster(plan, scheduler);
  cfg.warmup = warmup;
  cfg.measure = measure;

  auto future = std::async(std::launch::async,
                           [&] { return runtime::run_experiment(bank, cfg); });
  // Liveness: generous wall-clock bound (the run itself is < 1s of sim
  // time); missing it means a wedged lock or a stranded queue.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(120)), std::future_status::ready)
      << "chaos run hung: liveness violated";
  const auto result = future.get();
  const std::string report = result.report.to_string();
  EXPECT_GT(result.delta.commits_root, 0u) << "no progress under faults\n" << report;
  EXPECT_TRUE(result.verified) << "conservation violated under faults\n" << report;
  // The sweep resent every lost release and hand-off, or its answer, until
  // it was answered: the locks are free and the old owners evicted their
  // locked copies.
  EXPECT_EQ(result.report.unanswered_requests, 0u)
      << "a release or hand-off outlived the drain\n" << report;
  EXPECT_EQ(result.report.locked_slots, 0u) << "a lock outlived its commit\n" << report;
  // A committer's clock has passed every clock registered for an object it
  // registers, so no home node refuses it (docs/PROTOCOL.md).
  EXPECT_EQ(result.report.totals.register_refusals, 0u)
      << "a home node refused a registration\n" << report;
}

TEST(Chaos, BankSurvivesDropAndDuplication) {
  // The ISSUE's acceptance point: 2% drop + 1% duplication.
  net::FaultPlan plan;
  plan.drop = 0.02;
  plan.duplicate = 0.01;
  plan.seed = 42;
  run_bank_chaos(plan, sim_ms(50), sim_ms(300));
}

TEST(Chaos, BankSurvivesCrashRecoveryWindow) {
  // Node 1 goes dark for 40ms mid-measurement and recovers with its state
  // (objects, locks, queues) intact; the retry budget (~260ms) rides it out.
  net::FaultPlan plan;
  plan.drop = 0.01;
  plan.duplicate = 0.01;
  plan.seed = 7;
  plan.crashes.push_back({/*node=*/1, /*start=*/sim_ms(120), /*end=*/sim_ms(160)});
  run_bank_chaos(plan, sim_ms(50), sim_ms(300));
}

TEST(Chaos, BankSurvivesTailSpikesAndDrops) {
  net::FaultPlan plan;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.delay = 0.10;
  plan.delay_spike = sim_ms(2);
  plan.seed = 99;
  run_bank_chaos(plan, sim_ms(40), sim_ms(250));
}

// Runs the bank workload on the chaos cluster under `plan`, for fault seeds
// 1-6, with a retry schedule of 2 ms, capped at 4 ms, and 3 resends: a
// transaction's wait gives up after about 14 ms, and the plan's fault window
// from 50 ms to 250 ms outlasts that many times over. The 300 ms warm-up
// outlasts the window, so the 300 ms measurement window opens once every
// node is reachable again. The cluster must commit in it, and once the
// workers stop it must hold no locked slot and no unanswered request, one
// owner per account named by the account's directory, and the balance
// total. A parked requester (ROADMAP item 17) is printed, not asserted.
void run_long_fault(net::FaultPlan plan) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    plan.seed = seed;
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    workloads::BankWorkload bank(chaos_bank());
    runtime::ClusterConfig cfg = chaos_cluster(plan, "rts");
    cfg.seed = seed;
    cfg.rpc.base_timeout = sim_ms(2);
    cfg.rpc.max_timeout = sim_ms(4);
    cfg.rpc.max_retries = 3;

    runtime::Cluster cluster(cfg);
    bank.setup(cluster);
    cluster.start_workers(bank);
    std::this_thread::sleep_for(to_chrono(sim_ms(300)));
    const std::uint64_t before = cluster.total_metrics().commits_root;
    std::this_thread::sleep_for(to_chrono(sim_ms(300)));
    const std::uint64_t committed = cluster.total_metrics().commits_root - before;
    cluster.stop_workers();

    const runtime::ClusterReport report = runtime::collect_report(cluster);
    const std::string text = report.to_string();
    std::printf("fault seed %llu: %llu commits in the window, parked=%zu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(committed), report.queued_requesters);
    EXPECT_GT(committed, 0u) << "no commit after the window closed\n" << text;
    EXPECT_EQ(report.locked_slots, 0u) << "a lock outlived the window\n" << text;
    EXPECT_EQ(report.unanswered_requests, 0u)
        << "a release or hand-off outlived the drain\n" << text;
    EXPECT_TRUE(bank.verify(cluster)) << "conservation violated\n" << text;
    expect_single_owners(cluster);
    cluster.shutdown();
  }
}

TEST(Chaos, DarkHomeNodeDelaysALookupWithoutDroppingTheTransaction) {
  // Node 1, the home of the account, is dark for the first 150 ms; node 2
  // owns it. Node 0's lookup outlasts a 2 ms / 4 ms / 2-resend budget many
  // times over: each time the budget runs out, the transaction aborts as a
  // watchdog and retries, until the home node answers.
  net::FaultPlan plan;
  plan.crashes.push_back({/*node=*/1, /*start=*/0, /*end=*/sim_ms(150)});
  runtime::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  cfg.fault = plan;
  cfg.rpc.base_timeout = sim_ms(2);
  cfg.rpc.max_timeout = sim_ms(4);
  cfg.rpc.max_retries = 2;
  runtime::Cluster cluster(cfg);
  const ObjectId oid{4251};
  ASSERT_EQ(dsm::home_node(oid, cluster.size()), 1u);
  cluster.create_object(std::make_unique<workloads::Account>(oid, 7), 2);

  std::int64_t balance = 0;
  const auto res = cluster.execute(
      0, 1, [&](tfa::Txn& tx) { balance = tx.read<workloads::Account>(oid).balance(); });
  EXPECT_TRUE(res.committed);
  EXPECT_GT(res.attempts, 1u);
  EXPECT_EQ(balance, 7);
  const auto counted = cluster.total_metrics();
  EXPECT_EQ(counted.aborts_root[static_cast<std::size_t>(tfa::AbortCause::kShutdown)], 0u);
  EXPECT_EQ(counted.aborts_root[static_cast<std::size_t>(tfa::AbortCause::kWatchdog)],
            res.attempts - 1);
  cluster.shutdown();
}

TEST(Chaos, LongCrashWindowWedgesNothing) {
  net::FaultPlan plan;
  plan.drop = 0.01;
  plan.duplicate = 0.01;
  plan.crashes.push_back({/*node=*/1, /*start=*/sim_ms(50), /*end=*/sim_ms(250)});
  run_long_fault(plan);
}

TEST(Chaos, LongPartitionWindowWedgesNothing) {
  net::FaultPlan plan;
  plan.drop = 0.01;
  plan.duplicate = 0.01;
  plan.partitions.push_back({/*start=*/sim_ms(50), /*end=*/sim_ms(250), /*cut=*/2});
  run_long_fault(plan);
}

// Every scheduler policy — including the zoo challengers with their parked
// queues and priority hand-offs — must keep both chaos properties (liveness
// and exact conservation) under drop + duplication. A policy whose queue
// leaks a requester when the grant path loses messages hangs here.
class ChaosPolicySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosPolicySweep, BankSurvivesDropAndDuplication) {
  net::FaultPlan plan;
  plan.drop = 0.02;
  plan.duplicate = 0.01;
  plan.seed = 42;
  run_bank_chaos(plan, sim_ms(40), sim_ms(200), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Zoo, ChaosPolicySweep,
                         ::testing::ValuesIn(core::scheduler_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-' || c == '+') c = '_';
                           return name;
                         });

TEST(Chaos, DegradationCountersSurfaceInTheReport) {
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = 0.2;
  wcfg.objects_per_node = 4;
  wcfg.local_work = sim_us(50);
  workloads::BankWorkload bank(wcfg);

  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = 3;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.scheduler.kind = "rts";
  cfg.cluster.topology.min_delay = sim_us(20);
  cfg.cluster.topology.max_delay = sim_us(300);
  cfg.cluster.fault.drop = 0.05;
  cfg.cluster.fault.duplicate = 0.02;
  cfg.cluster.fault.seed = 3;
  cfg.warmup = sim_ms(30);
  cfg.measure = sim_ms(250);
  const auto result = runtime::run_experiment(bank, cfg);
  EXPECT_TRUE(result.verified);
  // Dropped requests/replies must show up as retries, and duplicated or
  // retried requests as dedup hits — the observability half of the tentpole.
  EXPECT_GT(result.delta.rpc_retries, 0u);
  EXPECT_GT(result.delta.dedup_hits, 0u);
}

}  // namespace
}  // namespace hyflow
