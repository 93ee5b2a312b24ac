// Experiment harness: builds a cluster, runs a workload for a warmup +
// measurement window, and reduces the metrics into the quantities the
// paper reports — throughput (committed root transactions per second,
// Figs. 4/5), the nested-transaction abort rate (Table I), and the
// supporting abort/enqueue/hand-off counters.
#pragma once

#include "runtime/cluster.hpp"
#include "runtime/report.hpp"
#include "util/time.hpp"

namespace hyflow::workloads {
class Workload;
}

namespace hyflow::runtime {

struct ExperimentConfig {
  ClusterConfig cluster;
  SimDuration warmup = sim_ms(150);
  SimDuration measure = sim_ms(600);
  bool verify = true;  // run the workload's invariant audit afterwards
};

struct ExperimentResult {
  double throughput = 0.0;           // root commits / second (measurement window)
  double nested_abort_rate = 0.0;    // Table I metric
  double abort_ratio = 0.0;          // root aborts / (commits + aborts)
  MetricsSnapshot delta;             // window counters (incl. latency histogram)
  double seconds = 0.0;              // measured wall time of the window
  std::uint64_t messages = 0;        // transport messages in the window
  std::uint64_t bytes = 0;           // transport bytes in the window
  std::uint64_t queue_residue = 0;   // requesters still parked at the end
  ClusterReport report;              // collected after the workers stopped
  bool verified = true;
};

// Runs `workload` on a fresh cluster built from `cfg`.
ExperimentResult run_experiment(workloads::Workload& workload, const ExperimentConfig& cfg);

}  // namespace hyflow::runtime
