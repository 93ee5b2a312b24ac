// The simulated cluster: N nodes over a latency-modelled network.
//
// Construction wires every node's handler and the 1 ms sweep into the
// network and starts its dispatcher, which runs every handler and every
// sweep; the only other threads a cluster starts are the workers of
// `start_workers`. `create_object` places initial objects (store slot at the
// owner, directory entry at the home node); `start_workers`/`stop_workers`
// drive a workload; `execute` runs a single transaction synchronously for
// examples and tests.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "runtime/metrics.hpp"
#include "runtime/node.hpp"

namespace hyflow::workloads {
class Workload;
}

namespace hyflow::runtime {

struct ClusterConfig {
  std::uint32_t nodes = 8;
  int workers_per_node = 2;
  net::TopologyConfig topology;  // `nodes` is overridden to match
  core::SchedulerConfig scheduler;
  tfa::TfaConfig tfa;
  net::FaultPlan fault;     // fault injection (default off)
  net::RetryPolicy rpc;     // reliable-RPC retry schedule
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes_.size()); }
  Node& node(NodeId id) { return *nodes_.at(id); }
  net::Network& network() { return *network_; }
  const ClusterConfig& config() const { return cfg_; }

  // Places `obj` at `owner` and publishes it in the home-node directory,
  // each as one owner step of that node.
  void create_object(std::unique_ptr<AbstractObject> obj, NodeId owner);

  // Locates the current owner's committed copy of an object by scanning
  // stores (post-quiesce audits only). Returns nullptr if absent.
  ObjectSnapshot committed_copy(ObjectId oid);

  // ---- workload driving ----
  void start_workers(workloads::Workload& workload);
  // Joins the workers, if any, then drains the network and the nodes'
  // resend tables, so audits see a quiescent cluster. A worker whose
  // ownership registration waits on a dark home node finishes only after
  // the fault window has closed. The drain waits at most the fault plan's
  // last window end plus four max_timeouts.
  void stop_workers();

  // Runs one transaction synchronously on `node` (examples/tests).
  tfa::RunResult execute(NodeId node, std::uint32_t profile,
                         const std::function<void(tfa::Txn&)>& body);

  // Sums every node's counters and commit-latency histogram; safe to read
  // live, not just after stop_workers().
  MetricsSnapshot total_metrics() const;

  // Requests in the nodes' resend tables (lock releases and hand-offs)
  // still unanswered, summed over the nodes.
  std::size_t unanswered_requests();

  // Stops workers and drains (stop_workers), unblocks pending calls, stops
  // the network.
  void shutdown();

 private:
  ClusterConfig cfg_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Client threads: each runs its node's transactions back-to-back (zero
  // think time) until asked to stop.
  std::vector<std::jthread> workers_;
  bool shut_down_ = false;
};

}  // namespace hyflow::runtime
