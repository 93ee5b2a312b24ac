// Shared driver for Figures 4 and 5: transactional throughput vs node count,
// swept head-to-head across every registered scheduler policy (the paper's
// RTS/TFA/TFA+Backoff plus the zoo challengers), one series-block per
// benchmark and one labelled BENCH_*.json point per (workload, policy,
// nodes). Restrict with --schedulers=rts,tfa,... for the paper's original
// three-way figure.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_result.hpp"
#include "bench/common.hpp"

namespace hyflow::bench {

inline int run_throughput_figure(int argc, char** argv, const char* title, bool low_contention) {
  const auto cfg = Config::from_args(argc, argv);
  auto opt = HarnessOptions::from_config(cfg);
  opt.bench_name = low_contention ? "fig4_throughput_low" : "fig5_throughput_high";
  check_args(cfg, opt.bench_name);
  const double read_ratio = low_contention ? opt.read_ratio_low : opt.read_ratio_high;
  const auto schedulers = selected_schedulers(opt);

  BenchResult bench = make_bench_result(opt);
  bench.meta("contention", low_contention ? "low" : "high");
  bench.meta("read_ratio", read_ratio);
  {
    std::string joined;
    for (const auto& s : schedulers) joined += (joined.empty() ? "" : ",") + s;
    bench.meta("schedulers", joined);
  }
  opt.sink = &bench;

  print_header(title, opt);
  std::printf("# read ratio=%.2f; series: throughput in committed txn/s\n\n", read_ratio);

  for (const auto& workload : selected_workloads(opt)) {
    std::printf("## %s (%s contention)\n", workload.c_str(), low_contention ? "low" : "high");
    std::printf("%-6s", "nodes");
    for (const auto& scheduler : schedulers) std::printf(" %14s", scheduler.c_str());
    std::printf("\n");
    for (const auto nodes : opt.node_sweep) {
      std::printf("%-6lld", static_cast<long long>(nodes));
      for (const auto& scheduler : schedulers) {
        const auto result = run_point(opt, workload, scheduler,
                                      static_cast<std::uint32_t>(nodes), read_ratio);
        std::printf(" %14.1f", result.throughput);
        if (!result.verified)
          std::printf("\n!! %s/%s/n=%lld failed verification", workload.c_str(),
                      scheduler.c_str(), static_cast<long long>(nodes));
      }
      std::printf("\n");
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("# expectation: RTS tops each column; throughput grows with nodes\n");
  write_bench_json(bench, opt);
  return 0;
}

}  // namespace hyflow::bench
