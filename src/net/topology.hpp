// Metric-space topology (Herlihy & Sun's model assumes nodes scattered in a
// metric space; the paper's testbed used 1-50 ms message-passing links).
//
// Nodes are placed uniformly at random in the unit square; the link delay
// between two nodes is their Euclidean distance mapped linearly onto
// [min_delay, max_delay]. The defaults, 50 µs and 2.5 ms, compress the
// paper's 1-50 ms onto the host (1 paper ms = 50 host µs) so an 80-node run
// finishes in seconds; the benches set them with --min-delay-us and
// --max-delay-us. Delays are symmetric and fixed for a run ("a static
// network", §IV-A), so per-pair FIFO ordering holds automatically.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/object_id.hpp"
#include "util/time.hpp"

namespace hyflow::net {

struct TopologyConfig {
  std::uint32_t nodes = 8;
  SimDuration min_delay = sim_us(50);    // paper: 1 ms, scaled
  SimDuration max_delay = sim_us(2500);  // paper: 50 ms, scaled
  SimDuration local_delay = sim_us(1);   // same-node proxy hop
  // Per-message delay jitter as a fraction of the link delay (0 = the
  // paper's static network). Jitter breaks per-pair FIFO, which the
  // protocol tolerates: replies are matched by id and one-way notifications
  // commute (exercised by the jitter tests).
  double jitter = 0.0;
  std::uint64_t seed = 42;
};

class Topology {
 public:
  explicit Topology(const TopologyConfig& cfg);

  std::uint32_t node_count() const { return cfg_.nodes; }
  SimDuration delay(NodeId from, NodeId to) const;

  // Metric distance (abstract units in [0,1.42]); the makespan-bound bench
  // uses it to evaluate the paper's Lemma 3.2/3.3 expressions directly.
  double distance(NodeId from, NodeId to) const;

  const TopologyConfig& config() const { return cfg_; }

 private:
  TopologyConfig cfg_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  double max_distance_ = 1.0;
};

}  // namespace hyflow::net
