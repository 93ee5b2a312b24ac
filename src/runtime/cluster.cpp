#include "runtime/cluster.hpp"

#include <chrono>

#include "dsm/directory.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace hyflow::runtime {

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  HYFLOW_ASSERT(cfg.nodes >= 1);
  net::TopologyConfig topo = cfg.topology;
  topo.nodes = cfg.nodes;
  network_ = std::make_unique<net::Network>(net::Topology(topo), cfg.fault);

  NodeConfig node_cfg;
  node_cfg.scheduler = cfg.scheduler;
  node_cfg.tfa = cfg.tfa;
  node_cfg.rpc = cfg.rpc;
  nodes_.reserve(cfg.nodes);
  for (NodeId id = 0; id < cfg.nodes; ++id) {
    nodes_.push_back(std::make_unique<Node>(id, *network_, node_cfg));
    network_->register_handler(id, [node = nodes_.back().get()](net::Message msg) {
      node->handle_message(std::move(msg));
    });
  }
  // Expire unacknowledged Alg. 4 grants on every node, so a dropped grant
  // re-serves the queue instead of stranding it, and resend every overdue
  // release and hand-off, so a dropped request or answer still frees the
  // lock or moves the queue.
  network_->set_tick(sim_ms(1), [this](SimTime now) {
    for (auto& n : nodes_) n->owner().sweep(now);
  });
  network_->start();
}

Cluster::~Cluster() { shutdown(); }

void Cluster::create_object(std::unique_ptr<AbstractObject> obj, NodeId owner) {
  HYFLOW_ASSERT(owner < size());
  const ObjectId oid = obj->id();
  HYFLOW_ASSERT_MSG(oid.valid(), "objects need a non-zero id");
  node(owner).owner().install(ObjectSnapshot{std::move(obj)}, kInitialVersion);
  node(dsm::home_node(oid, size())).owner().publish(oid, owner);
}

ObjectSnapshot Cluster::committed_copy(ObjectId oid) {
  if (const auto owner = node(dsm::home_node(oid, size())).owner().directory_lookup(oid)) {
    if (auto copy = node(*owner).owner().owned_copy(oid)) return copy;
  }
  // Directory and store can disagree transiently around shutdown; fall back
  // to a scan.
  for (auto& n : nodes_) {
    if (auto copy = n->owner().owned_copy(oid)) return copy;
  }
  return nullptr;
}

void Cluster::start_workers(workloads::Workload& workload) {
  HYFLOW_ASSERT_MSG(workers_.empty(), "workers already running");
  std::uint64_t seed = cfg_.seed * 0x9e3779b97f4a7c15ull + 1;
  for (NodeId id = 0; id < size(); ++id) {
    for (int w = 0; w < cfg_.workers_per_node; ++w) {
      workers_.emplace_back(
          [&n = node(id), &workload, rng = Xoshiro256(seed++)](std::stop_token st) mutable {
            while (!st.stop_requested()) {
              auto op = workload.next_op(n.self(), rng);
              n.runtime().run(op.profile, op.body, [&st] { return !st.stop_requested(); });
            }
          });
    }
  }
}

void Cluster::stop_workers() {
  // Graceful stop: workers finish their current transaction. Every RPC wait
  // but the registration's is reply-bounded while the network runs, the
  // registration's ends once the fault windows have closed, and a parked
  // transaction's backoff is capped, so joins converge without cutting
  // pending calls — cutting them would eat lock-grant replies mid-commit
  // and leak locks.
  for (auto& w : workers_) w.request_stop();
  workers_.clear();  // joins
  // Drain in-flight messages (ownership transfers, unlock notifications) so
  // post-run audits see a quiescent, consistent cluster. The sweep resends a
  // lost release or hand-off at least every max_timeout, so each lands soon
  // after the last fault window closes; one still unanswered past that bound
  // was lost to a defect, which the quiesce audit then reports.
  const SimTime deadline = sim_now() + cfg_.fault.last_window_end() + 4 * cfg_.rpc.max_timeout;
  network_->wait_idle();
  while (unanswered_requests() > 0 && sim_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    network_->wait_idle();
  }
}

std::size_t Cluster::unanswered_requests() {
  std::size_t unanswered = 0;
  for (auto& n : nodes_) unanswered += n->owner().unanswered_requests();
  return unanswered;
}

tfa::RunResult Cluster::execute(NodeId node_id, std::uint32_t profile,
                                const std::function<void(tfa::Txn&)>& body) {
  return node(node_id).runtime().run(profile, body);
}

MetricsSnapshot Cluster::total_metrics() const {
  MetricsSnapshot total;
  for (const auto& n : nodes_) total += n->metrics().snapshot();
  return total;
}

void Cluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  stop_workers();
  for (auto& n : nodes_) n->close_pending();
  network_->stop();
}

}  // namespace hyflow::runtime
