// Ablation: CL-threshold sensitivity (§IV-A: "At a certain point of the
// CL's threshold, we observe a peak point of transactional throughput").
//
// Sweeps the RTS contention-level threshold per benchmark at high contention
// and prints the throughput curve; the per-benchmark defaults in
// bench/common.cpp are the peaks of these sweeps.
//
// Usage: ablation_cl_threshold [--nodes=12] [--thresholds=1,2,4,6,8,12,16]
//        [--workloads=bank,dht] ...
#include <cstdio>

#include "bench/bench_result.hpp"
#include "bench/common.hpp"

using namespace hyflow;
using namespace hyflow::bench;

int main(int argc, char** argv) {
  const auto cfg = Config::from_args(argc, argv);
  auto opt = HarnessOptions::from_config(cfg);
  opt.bench_name = "ablation_cl_threshold";
  const auto nodes = static_cast<std::uint32_t>(cfg.get_int("nodes", 12));
  const auto thresholds = cfg.get_int_list("thresholds", {1, 2, 4, 6, 8, 12, 16});
  check_args(cfg, opt.bench_name);
  if (opt.workloads.empty()) opt.workloads = {"bank", "vacation", "dht"};
  const std::vector<std::string> selected = opt.workloads;

  BenchResult bench = make_bench_result(opt);
  bench.meta("nodes", static_cast<std::int64_t>(nodes));
  opt.sink = &bench;

  print_header("Ablation: RTS CL-threshold sweep (high contention)", opt);
  std::printf("# nodes=%u read-ratio=%.2f\n\n", nodes, opt.read_ratio_high);

  for (const auto& workload : selected) {
    std::printf("## %s\n%-10s %12s %10s %10s %12s\n", workload.c_str(), "threshold",
                "txn/s", "enqueued", "expired", "abort-ratio");
    double best_thr = 0;
    std::int64_t best_t = 0;
    for (const auto t : thresholds) {
      const auto result = run_point(opt, workload, "rts", nodes, opt.read_ratio_high,
                                    static_cast<std::uint32_t>(t));
      std::printf("%-10lld %12.1f %10llu %10llu %12s\n", static_cast<long long>(t),
                  result.throughput,
                  static_cast<unsigned long long>(result.delta.enqueued),
                  static_cast<unsigned long long>(result.delta.backoff_expired),
                  pct(result.abort_ratio).c_str());
      std::fflush(stdout);
      if (result.throughput > best_thr) {
        best_thr = result.throughput;
        best_t = t;
      }
    }
    std::printf("-> peak at threshold %lld (%.1f txn/s)\n\n", static_cast<long long>(best_t),
                best_thr);
  }
  write_bench_json(bench, opt);
  return 0;
}
