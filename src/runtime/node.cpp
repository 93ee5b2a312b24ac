#include "runtime/node.hpp"

namespace hyflow::runtime {

Node::Node(NodeId id, net::Network& network, const NodeConfig& cfg)
    : id_(id),
      network_(network),
      rpc_policy_(cfg.rpc),
      stats_(cfg.tfa.default_expected_duration),
      owner_(cfg.tfa, cfg.scheduler, *this, metrics_),
      runtime_(cfg.tfa, *this, owner_, stats_, clock_, metrics_) {}

net::Message Node::envelope(NodeId to, net::Payload payload) const {
  net::Message m;
  m.from = id_;
  m.to = to;
  m.sender_clock = clock_.read();
  m.payload = std::move(payload);
  return m;
}

net::RequestCall Node::request(NodeId to, net::Payload payload) {
  const std::uint64_t id = network_.allocate_msg_id();
  auto call = pending_.open(id);
  net::Message m = envelope(to, payload);
  m.msg_id = id;
  network_.send(std::move(m));
  return net::RequestCall(&pending_, std::move(call), id, to, std::move(payload));
}

std::uint64_t Node::send_request(NodeId to, net::Payload payload) {
  net::Message m = envelope(to, std::move(payload));
  m.msg_id = network_.allocate_msg_id();
  const std::uint64_t id = m.msg_id;
  network_.send(std::move(m));
  return id;
}

void Node::post(NodeId to, net::Payload payload) {
  network_.send(envelope(to, std::move(payload)));
}

void Node::reply(const net::Message& request, net::Payload payload) {
  // Remember the reply so a retried/duplicated request replays it instead
  // of re-executing the handler (a replayed CommitRequest must hand back
  // the queue captured at the real hand-over, not current state).
  reply_cache_.record_reply(request.msg_id, payload);
  net::Message m = envelope(request.from, std::move(payload));
  m.reply_to = request.msg_id;
  network_.send(std::move(m));
}

void Node::reply_routed(NodeId to, std::uint64_t reply_to, net::Payload payload) {
  net::Message m = envelope(to, std::move(payload));
  m.reply_to = reply_to;
  network_.send(std::move(m));
}

void Node::resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
                  net::Payload payload) {
  metrics_.add(Counter::rpc_retries);
  net::Message m = envelope(to, std::move(payload));
  m.msg_id = msg_id;    // same id: replies of any attempt match the call
  m.attempt = attempt;  // new ordinal: the fault injector re-rolls its dice
  network_.send(std::move(m));
}

void Node::handle_message(net::Message msg) {
  clock_.advance_to(msg.sender_clock);  // Lamport receive rule
  if (msg.reply_to != 0) {
    // No call awaits it: the answer to a request in the owner side's resend
    // table, or an orphan.
    if (!pending_.deliver(msg)) owner_.take_reply(msg);
    return;
  }
  const auto seen = reply_cache_.admit(msg.msg_id);
  if (seen.duplicate) {
    // Retry or network duplicate of a request already executed: never run
    // the handler twice — replay the recorded reply, or swallow a one-way.
    metrics_.add(Counter::dedup_hits);
    if (seen.reply) {
      net::Message m = envelope(msg.from, *seen.reply);
      m.reply_to = msg.msg_id;
      network_.send(std::move(m));
    }
    return;
  }
  owner_.handle(msg);
}

void Node::close_pending() { pending_.close_all(); }

}  // namespace hyflow::runtime
