// §III-D analysis check: makespan of the worst case — N transactions, one
// per node, all updating a single shared object initially held by node 0.
//
//   Lemma 3.2 (scheduler B = abort + backoff):
//       makespan_B   <= 2(N-1) * sum_i d(n0, ni) + sum_i gamma_i
//   Lemma 3.3 (RTS):
//       makespan_RTS <= sum_i d(n0, ni) + sum_i d(n_{i-1}, n_i) + sum_i gamma_i
//   Theorem 3.4: the relative competitive ratio RCR = makespan_RTS /
//   makespan_B is below 1.
//
// This bench measures both makespans on the simulated cluster and evaluates
// the lemmas' right-hand sides from the actual topology (using node order
// 1..N-1 for the chain term — the bound is order-sensitive but any fixed
// order upper-bounds the best case the lemma assumes). Absolute bounds are
// loose (the analysis ignores validation round-trips); the reproduction
// target is makespan_RTS < makespan_B and both under their bounds' shape.
//
// Usage: makespan_bounds [--nodes=16] [--gamma-us=300] [--repeats=3]
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_result.hpp"
#include "bench/common.hpp"
#include "runtime/cluster.hpp"

using namespace hyflow;
using namespace hyflow::bench;

namespace {

class Cell : public TxObject<Cell> {
 public:
  explicit Cell(ObjectId id) : TxObject(id) {}
  std::int64_t value = 0;
};

struct MakespanRun {
  SimDuration makespan = 0;
  runtime::MetricsSnapshot delta;  // whole-run counters (incl. latency)
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  bool verified = true;
};

// One transaction per node, all incrementing the same object; returns the
// wall-clock makespan plus the run's metrics.
MakespanRun measure_makespan(const HarnessOptions& opt, const std::string& scheduler,
                             std::uint32_t nodes, SimDuration gamma) {
  runtime::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = scheduler;
  cfg.scheduler.cl_threshold = 64;  // worst-case analysis assumes everyone queues
  cfg.topology.min_delay = opt.min_delay;
  cfg.topology.max_delay = opt.max_delay;
  cfg.topology.seed = opt.seed;
  runtime::Cluster cluster(cfg);
  const ObjectId oid{777};
  cluster.create_object(std::make_unique<Cell>(oid), 0);

  const Stopwatch clock;
  {
    std::vector<std::jthread> txns;
    for (NodeId n = 0; n < nodes; ++n) {
      txns.emplace_back([&cluster, n, oid, gamma] {
        cluster.execute(n, 1, [&](tfa::Txn& tx) {
          tx.write<Cell>(oid).value += 1;
          std::this_thread::sleep_for(to_chrono(gamma));
        });
      });
    }
  }
  MakespanRun run;
  run.makespan = clock.elapsed();
  run.delta = cluster.total_metrics();
  run.messages = cluster.network().stats().messages.load();
  run.bytes = cluster.network().stats().bytes.load();

  // All N increments must have committed exactly once.
  std::int64_t final_value = 0;
  cluster.execute(0, 2, [&](tfa::Txn& tx) { final_value = tx.read<Cell>(oid).value; });
  if (final_value != static_cast<std::int64_t>(nodes)) {
    std::printf("!! lost updates: value=%lld nodes=%u\n",
                static_cast<long long>(final_value), nodes);
    run.verified = false;
  }
  cluster.shutdown();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = Config::from_args(argc, argv);
  auto opt = HarnessOptions::from_config(cfg);
  opt.bench_name = "makespan_bounds";
  const auto nodes = static_cast<std::uint32_t>(cfg.get_int("nodes", 16));
  const SimDuration gamma = sim_us(cfg.get_int("gamma-us", 300));
  const int repeats = static_cast<int>(cfg.get_int("repeats", 3));
  check_args(cfg, opt.bench_name);

  BenchResult bench = make_bench_result(opt);
  bench.meta("nodes", static_cast<std::int64_t>(nodes));
  bench.meta("gamma_us", static_cast<std::int64_t>(gamma / 1000));

  print_header("Makespan bounds (paper SS III-D): N writers, one object", opt);
  std::printf("# nodes=%u gamma=%lldus repeats=%d\n\n", nodes,
              static_cast<long long>(gamma / 1000), repeats);

  // Analytical right-hand sides from the actual topology.
  net::TopologyConfig tcfg;
  tcfg.nodes = nodes;
  tcfg.min_delay = opt.min_delay;
  tcfg.max_delay = opt.max_delay;
  tcfg.seed = opt.seed;
  net::Topology topo(tcfg);
  SimDuration sum_d0 = 0, sum_chain = 0;
  for (NodeId i = 1; i < nodes; ++i) {
    sum_d0 += topo.delay(0, i);
    sum_chain += topo.delay(i - 1, i);
  }
  const SimDuration sum_gamma = static_cast<SimDuration>(nodes) * gamma;
  const SimDuration bound_b = 2 * static_cast<SimDuration>(nodes - 1) * sum_d0 + sum_gamma;
  const SimDuration bound_rts = sum_d0 + sum_chain + sum_gamma;

  MakespanRun best_rts_run, best_b_run;
  double best_rts = 1e18, best_b = 1e18;
  for (int rep = 0; rep < repeats; ++rep) {
    auto rts_run = measure_makespan(opt, "rts", nodes, gamma);
    if (static_cast<double>(rts_run.makespan) < best_rts) {
      best_rts = static_cast<double>(rts_run.makespan);
      best_rts_run = std::move(rts_run);
    }
    auto b_run = measure_makespan(opt, "backoff", nodes, gamma);
    if (static_cast<double>(b_run.makespan) < best_b) {
      best_b = static_cast<double>(b_run.makespan);
      best_b_run = std::move(b_run);
    }
  }

  std::printf("%-22s %14s %14s\n", "", "measured(ms)", "lemma bound(ms)");
  std::printf("%-22s %14.2f %14.2f\n", "RTS (Lemma 3.3)", best_rts / 1e6,
              static_cast<double>(bound_rts) / 1e6);
  std::printf("%-22s %14.2f %14.2f\n", "scheduler B (Lemma 3.2)", best_b / 1e6,
              static_cast<double>(bound_b) / 1e6);
  const double rcr = best_rts / best_b;
  std::printf("\nRCR = makespan_RTS / makespan_B = %.3f (Theorem 3.4 expects < 1)\n", rcr);
  std::printf("bound ratio = %.3f\n",
              static_cast<double>(bound_rts) / static_cast<double>(bound_b));

  const struct {
    const char* scheduler;
    const MakespanRun* run;
    double makespan;
    SimDuration bound;
  } rows[] = {{"rts", &best_rts_run, best_rts, bound_rts},
              {"backoff", &best_b_run, best_b, bound_b}};
  for (const auto& row : rows) {
    bench.add_point()
        .label("scheduler", row.scheduler)
        .label("nodes", static_cast<std::int64_t>(nodes))
        .from_metrics(row.run->delta, row.makespan * 1e-9, row.run->messages,
                      row.run->bytes, row.run->verified)
        .metric("makespan_ms", row.makespan / 1e6)
        .metric("bound_ms", static_cast<double>(row.bound) / 1e6);
  }
  bench.meta("rcr", rcr);
  write_bench_json(bench, opt);
  return 0;
}
