#include "runtime/experiment.hpp"

#include <thread>

#include "util/log.hpp"
#include "workloads/workload.hpp"

namespace hyflow::runtime {

ExperimentResult run_experiment(workloads::Workload& workload, const ExperimentConfig& cfg) {
  Cluster cluster(cfg.cluster);
  workload.setup(cluster);

  cluster.start_workers(workload);
  std::this_thread::sleep_for(to_chrono(cfg.warmup));

  const MetricsSnapshot before = cluster.total_metrics();
  const std::uint64_t messages_before = cluster.network().stats().messages.load();
  const std::uint64_t bytes_before = cluster.network().stats().bytes.load();
  const SimTime t0 = sim_now();
  std::this_thread::sleep_for(to_chrono(cfg.measure));
  const MetricsSnapshot after = cluster.total_metrics();
  const std::uint64_t messages_after = cluster.network().stats().messages.load();
  const std::uint64_t bytes_after = cluster.network().stats().bytes.load();
  const SimTime t1 = sim_now();

  cluster.stop_workers();

  ExperimentResult result;
  result.delta = after - before;
  const double secs = static_cast<double>(t1 - t0) * 1e-9;
  result.seconds = secs;
  result.throughput = static_cast<double>(result.delta.commits_root) / secs;
  result.nested_abort_rate = result.delta.nested_abort_rate();
  result.abort_ratio = result.delta.abort_ratio();
  result.messages = messages_after - messages_before;
  result.bytes = bytes_after - bytes_before;
  result.report = collect_report(cluster);
  for (const NodeReport& node : result.report.nodes)
    result.queue_residue += node.queued_requesters;

  if (cfg.verify) {
    result.verified = workload.verify(cluster);
    if (!result.verified)
      HYFLOW_ERROR("workload '", workload.name(), "' failed its invariant audit");
  }
  cluster.shutdown();
  return result;
}

}  // namespace hyflow::runtime
