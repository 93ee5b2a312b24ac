// hyflow_run — the repository's general-purpose experiment driver: run any
// workload on any scheduler with every knob exposed, and print the
// experiment summary plus a per-node cluster report. Exits 1 when the
// workload's invariant audit fails, or when a slot is still locked or a
// lock release or hand-off still unanswered after the cluster quiesced.
// `--help` lists the keys; an unknown key stops it with exit 2 before
// anything runs.
//
//   hyflow_run --workload=bank --scheduler=rts --nodes=20 --read-ratio=0.1
//              --duration-ms=500 [--report] [--latency]
//
// Knobs (defaults in parentheses): --workload(bank) --scheduler(rts)
// --nodes(10) --workers(3) --read-ratio(0.5) --objects(6) --max-nested(4)
// --local-work-us(300) --threshold(tuned per workload)
// --min-delay-us(50) --max-delay-us(2500) --jitter(0.0)
// --warmup-ms(150) --duration-ms(400) --seed(42)
//
// Fault injection (see docs/EXPERIMENTS.md): --fault-drop(0.0)
// --fault-dup(0.0) --fault-delay(0.0) --fault-delay-spike-us(2000)
// --fault-seed(1) --fault-partition-start-ms/-end-ms/-cut
// --fault-crash-node/-start-ms/-end-ms
#include <cstdio>

#include "bench/common.hpp"
#include "runtime/experiment.hpp"
#include "util/config.hpp"
#include "workloads/registry.hpp"

using namespace hyflow;

int main(int argc, char** argv) {
  const auto cli = Config::from_args(argc, argv);
  const auto workload_name = cli.get_string("workload", "bank");
  const auto scheduler = cli.get_string("scheduler", "rts");
  const double read_ratio = cli.get_double("read-ratio", 0.5);

  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = static_cast<std::uint32_t>(cli.get_int("nodes", 10));
  cfg.cluster.workers_per_node = static_cast<int>(cli.get_int("workers", 3));
  cfg.cluster.scheduler.kind = scheduler;
  cfg.cluster.scheduler.cl_threshold = static_cast<std::uint32_t>(
      cli.get_int("threshold", bench::tuned_threshold(workload_name)));
  cfg.cluster.topology.min_delay = sim_us(cli.get_int("min-delay-us", 50));
  cfg.cluster.topology.max_delay = sim_us(cli.get_int("max-delay-us", 2500));
  cfg.cluster.topology.jitter = cli.get_double("jitter", 0.0);
  cfg.cluster.topology.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.cluster.seed = cfg.cluster.topology.seed;
  cfg.cluster.fault = net::FaultPlan::from_config(cli);
  cfg.warmup = sim_ms(cli.get_int("warmup-ms", 150));
  cfg.measure = sim_ms(cli.get_int("duration-ms", 400));

  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = read_ratio;
  wcfg.objects_per_node = static_cast<int>(cli.get_int("objects", 6));
  wcfg.max_nested = static_cast<int>(cli.get_int("max-nested", 4));
  wcfg.local_work = sim_us(cli.get_int("local-work-us", 300));
  wcfg.seed = cfg.cluster.seed;
  const bool print_latency = cli.get_bool("latency", false);
  const bool print_report = cli.get_bool("report", false);
  bench::check_args(cli, "hyflow_run");

  auto workload = workloads::make_workload(workload_name, wcfg);
  const auto result = runtime::run_experiment(*workload, cfg);
  const auto& delta = result.delta;

  std::printf("%s on %s: %u nodes, read-ratio %.2f\n", workload_name.c_str(),
              scheduler.c_str(), cfg.cluster.nodes, read_ratio);
  std::printf("throughput          %10.1f txn/s\n", result.throughput);
  std::printf("aborts/commit       %10.2f\n",
              delta.commits_root
                  ? static_cast<double>(delta.aborts_total()) /
                        static_cast<double>(delta.commits_root)
                  : 0.0);
  std::printf("nested abort rate   %9.1f%%  (parent-caused share, Table I)\n",
              delta.nested_abort_rate() * 100.0);
  std::printf("enqueued/hand-offs  %10llu / %llu\n",
              static_cast<unsigned long long>(delta.enqueued),
              static_cast<unsigned long long>(delta.handoffs_received));
  std::printf("messages            %10llu (%.1f per commit)\n",
              static_cast<unsigned long long>(result.messages),
              delta.commits_root ? static_cast<double>(result.messages) /
                                       static_cast<double>(delta.commits_root)
                                 : 0.0);
  std::printf("invariants          %10s\n", result.verified ? "verified" : "VIOLATED");
  // After the drain no release or hand-off may still wait for its answer,
  // and no slot may stay locked: either would mean a lost message was never
  // recovered. A parked requester is printed, but does not fail the run.
  const auto& audit = result.report;
  const bool quiesced = audit.unanswered_requests == 0 && audit.locked_slots == 0;
  std::printf("quiesce             %10s  (parked=%zu locked=%zu unanswered=%zu)\n",
              quiesced ? "clean" : "UNCLEAN", audit.queued_requesters, audit.locked_slots,
              audit.unanswered_requests);

  if (print_latency) {
    // The measurement window's commits, the histogram behind p50/p99 in
    // the experiment summary.
    const auto& lat = delta.latency;
    std::printf("latency ms          p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
                static_cast<double>(lat.value_at_percentile(50)) / 1e6,
                static_cast<double>(lat.value_at_percentile(90)) / 1e6,
                static_cast<double>(lat.value_at_percentile(99)) / 1e6,
                static_cast<double>(lat.max()) / 1e6);
  }
  if (print_report) std::printf("\n%s", result.report.to_string().c_str());
  return result.verified && quiesced ? 0 : 1;
}
