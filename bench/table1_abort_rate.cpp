// Table I reproduction: "Abort rate of nested transactions" — nested aborts
// caused by a parent abort / total nested aborts — at low (90% read) and
// high (10% read) contention, across all six benchmarks, swept over every
// registered scheduler policy (one BENCH point per workload/policy/
// contention cell). `--schedulers=rts,tfa` reproduces the paper's original
// two-column table.
//
// Paper reference values (80 nodes, 10k transactions):
//                Low contention        High contention
//                RTS      TFA          RTS      TFA
//   Vacation     25.6%    55.5%        29.1%    67.5%
//   Bank         21.5%    46.4%        23.3%    63.7%
//   Linked List  14.4%    37.6%        17.9%    43.2%
//   RB Tree      13.7%    32.2%        22.4%    45.1%
//   BST          11.1%    29.4%        17.5%    37.4%
//   DHT          12.8%    31.3%        19.9%    39.2%
//
// Usage: table1_abort_rate [--nodes=16] [--schedulers=rts,tfa] [--duration-ms=400] ...
#include <cstdio>

#include "bench/bench_result.hpp"
#include "bench/common.hpp"

using namespace hyflow;
using namespace hyflow::bench;

int main(int argc, char** argv) {
  const auto cfg = Config::from_args(argc, argv);
  auto opt = HarnessOptions::from_config(cfg);
  opt.bench_name = "table1_abort_rate";
  const auto nodes = static_cast<std::uint32_t>(cfg.get_int("nodes", 16));
  check_args(cfg, opt.bench_name);
  const auto schedulers = selected_schedulers(opt);

  BenchResult bench = make_bench_result(opt);
  bench.meta("nodes", static_cast<std::int64_t>(nodes));
  {
    std::string joined;
    for (const auto& s : schedulers) joined += (joined.empty() ? "" : ",") + s;
    bench.meta("schedulers", joined);
  }
  opt.sink = &bench;

  print_header("Table I: abort rate of nested transactions (parent-caused / total)", opt);
  std::printf("# nodes=%u (paper: 80)\n\n", nodes);
  std::printf("%-12s %-14s | %8s %8s\n", "benchmark", "scheduler", "low", "high");
  std::printf("----------------------------+------------------\n");

  for (const auto& workload : selected_workloads(opt)) {
    for (const auto& scheduler : schedulers) {
      double rates[2] = {0, 0};
      int i = 0;
      for (const double rr : {opt.read_ratio_low, opt.read_ratio_high}) {
        const auto result = run_point(opt, workload, scheduler, nodes, rr);
        rates[i++] = result.nested_abort_rate;
        if (!result.verified)
          std::printf("!! %s/%s failed verification\n", workload.c_str(), scheduler.c_str());
      }
      std::printf("%-12s %-14s | %8s %8s\n", workload.c_str(), scheduler.c_str(),
                  pct(rates[0]).c_str(), pct(rates[1]).c_str());
      std::fflush(stdout);
    }
  }
  std::printf("\n# expectation: RTS below TFA in every cell; rates rise with contention\n");
  write_bench_json(bench, opt);
  return 0;
}
