// Extension bench: two of §I's nesting models on the same Bank workload —
//   flat    each parent inlines all account operations (a child abort is a
//           parent abort; everything re-fetches),
//   closed  the paper's model (children retry alone; RTS can park parents).
//
// Conservation must hold for both. Expected shape: closed trades
// child-commit validation round-trips for cheaper recovery vs flat.
//
// Usage: ext_nesting_models [--nodes=12] ...
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_result.hpp"
#include "bench/common.hpp"
#include "workloads/bank.hpp"

using namespace hyflow;
using namespace hyflow::bench;

namespace {

// Bank with each transfer's closed-nested legs inlined into the parent.
class FlatBank : public workloads::BankWorkload {
 public:
  using BankWorkload::BankWorkload;

  Op next_op(NodeId node, Xoshiro256& rng) override {
    Op op = BankWorkload::next_op(node, rng);
    if (op.is_read) return op;  // reads keep their closed shape

    const auto& all = accounts();
    const int legs_n = 1 + static_cast<int>(rng.below(
                               std::max(1, config().max_nested / 2)));
    struct Leg {
      ObjectId from, to;
      std::int64_t amount;
    };
    std::vector<Leg> legs;
    for (int i = 0; i < legs_n; ++i) {
      legs.push_back(Leg{all[rng.below(all.size())], all[rng.below(all.size())],
                         static_cast<std::int64_t>(rng.range(1, 25))});
    }
    op.body = [this, legs](tfa::Txn& tx) {
      for (const Leg& leg : legs) {  // inlined: no inner transactions
        tx.write<workloads::Account>(leg.from).withdraw(leg.amount);
        tx.write<workloads::Account>(leg.to).deposit(leg.amount);
        do_local_work();
      }
    };
    return op;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = Config::from_args(argc, argv);
  auto opt = HarnessOptions::from_config(cfg);
  opt.bench_name = "ext_nesting_models";
  const auto nodes = static_cast<std::uint32_t>(cfg.get_int("nodes", 12));

  BenchResult bench = make_bench_result(opt);
  bench.meta("nodes", static_cast<std::int64_t>(nodes));
  bench.meta("read_ratio", opt.read_ratio_high);

  print_header("Extension: flat vs closed nesting (Bank, RTS)", opt);
  std::printf("# nodes=%u read-ratio=%.2f\n\n", nodes, opt.read_ratio_high);
  std::printf("%-8s %10s %12s %12s %10s\n", "style", "txn/s", "aborts/c", "nested-cmts",
              "verified");

  for (const bool flat : {true, false}) {
    const char* style = flat ? "flat" : "closed";
    workloads::WorkloadConfig wcfg;
    wcfg.read_ratio = opt.read_ratio_high;
    wcfg.objects_per_node = opt.objects_per_node;
    wcfg.max_nested = opt.max_nested;
    wcfg.local_work = opt.local_work;
    std::unique_ptr<workloads::BankWorkload> bank =
        flat ? std::make_unique<FlatBank>(wcfg) : std::make_unique<workloads::BankWorkload>(wcfg);

    runtime::ExperimentConfig ecfg;
    ecfg.cluster.nodes = nodes;
    ecfg.cluster.workers_per_node = opt.workers;
    ecfg.cluster.scheduler.kind = "rts";
    ecfg.cluster.scheduler.cl_threshold = tuned_threshold("bank");
    ecfg.cluster.topology.min_delay = opt.min_delay;
    ecfg.cluster.topology.max_delay = opt.max_delay;
    ecfg.warmup = opt.warmup;
    ecfg.measure = opt.measure;
    const auto r = runtime::run_experiment(*bank, ecfg);

    const double commits = std::max<double>(1.0, static_cast<double>(r.delta.commits_root));
    std::printf("%-8s %10.1f %12.2f %12llu %10s\n", style, r.throughput,
                static_cast<double>(r.delta.aborts_total()) / commits,
                static_cast<unsigned long long>(r.delta.nested_commits),
                r.verified ? "yes" : "NO");
    std::fflush(stdout);
    bench.add_point()
        .label("style", style)
        .label("workload", "bank")
        .label("scheduler", "rts")
        .label("nodes", static_cast<std::int64_t>(nodes))
        .from_experiment(r);
  }
  write_bench_json(bench, opt);
  return 0;
}
