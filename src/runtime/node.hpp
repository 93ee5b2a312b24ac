// A logical cluster node: TM proxy, owner side, stats table, logical clock
// and the TFA requester engine, glued to the network through the Comm facade.
//
// Message flow: the Network's dispatcher calls handle_message(); replies are
// routed to the node's pending calls, a reply no call awaits (the answer to
// a request in the OwnerCore's resend table, or an orphan) goes to the
// OwnerCore, and requests go to the OwnerCore's handlers.
// Worker threads run transactions through `runtime().run(...)`.
#pragma once

#include "net/comm.hpp"
#include "net/network.hpp"
#include "net/reply_cache.hpp"
#include "net/rpc.hpp"
#include "runtime/metrics.hpp"
#include "tfa/node_clock.hpp"
#include "tfa/owner_core.hpp"
#include "tfa/stats_table.hpp"
#include "tfa/tfa_runtime.hpp"

namespace hyflow::runtime {

struct NodeConfig {
  core::SchedulerConfig scheduler;
  tfa::TfaConfig tfa;
  net::RetryPolicy rpc;  // retry schedule for reliable requests
};

class Node final : public net::Comm {
 public:
  Node(NodeId id, net::Network& network, const NodeConfig& cfg);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---- net::Comm ----
  NodeId self() const override { return id_; }
  std::uint32_t cluster_size() const override { return network_.topology().node_count(); }
  net::RequestCall request(NodeId to, net::Payload payload) override;
  std::uint64_t send_request(NodeId to, net::Payload payload) override;
  void post(NodeId to, net::Payload payload) override;
  void reply(const net::Message& request, net::Payload payload) override;
  void reply_routed(NodeId to, std::uint64_t reply_to, net::Payload payload) override;
  void resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
              net::Payload payload) override;
  const net::RetryPolicy& retry_policy() const override { return rpc_policy_; }

  // Entry point registered with the network.
  void handle_message(net::Message msg);

  // Unblocks every worker waiting on an RPC; call before joining workers.
  void close_pending();

  tfa::TfaRuntime& runtime() { return runtime_; }
  tfa::OwnerCore& owner() { return owner_; }
  // OwnerCore's unlocked views, for tests and reads after quiesce.
  dsm::ObjectStore& store() { return owner_.store(); }
  dsm::DirectoryShard& directory() { return owner_.directory(); }
  core::Scheduler& scheduler() { return owner_.scheduler(); }
  NodeMetrics& metrics() { return metrics_; }
  const NodeMetrics& metrics() const { return metrics_; }
  tfa::NodeClock& clock() { return clock_; }
  tfa::StatsTable& stats() { return stats_; }

 private:
  net::Message envelope(NodeId to, net::Payload payload) const;

  NodeId id_;
  net::Network& network_;
  net::PendingCalls pending_;
  net::RetryPolicy rpc_policy_;
  net::ReplyCache reply_cache_;  // request dedup for at-least-once delivery
  tfa::NodeClock clock_;
  tfa::StatsTable stats_;
  NodeMetrics metrics_;
  tfa::OwnerCore owner_;
  tfa::TfaRuntime runtime_;
};

}  // namespace hyflow::runtime
