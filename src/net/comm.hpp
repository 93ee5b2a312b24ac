// Node-local communication facade used by the protocol layers (the TFA
// requester engine and the owner side). runtime::Node implements it by
// combining the Network, the node's PendingCalls registry, and its TFA
// logical clock (stamped on every outgoing envelope for Lamport
// synchronisation).
//
// RequestCall is the RAII handle for an outstanding request: it keeps the
// destination and payload the request was sent with (reliable_wait resends
// them), poll_for() waits for the next reply and leaves the call registered
// on timeout, and the destructor deregisters it, so a later reply becomes an
// orphan (a granted object's triggers the NotInterested protocol). Every
// poll is bounded; only a wait on the kUntilAnswered budget is not.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "net/message.hpp"
#include "net/rpc.hpp"

namespace hyflow::net {

class RequestCall {
 public:
  RequestCall(PendingCalls* registry, PendingCalls::CallPtr call, std::uint64_t msg_id,
              NodeId to, Payload payload)
      : registry_(registry),
        call_(std::move(call)),
        msg_id_(msg_id),
        to_(to),
        payload_(std::move(payload)) {}

  RequestCall(const RequestCall&) = delete;
  RequestCall& operator=(const RequestCall&) = delete;
  RequestCall(RequestCall&& other) noexcept
      : registry_(other.registry_),
        call_(std::move(other.call_)),
        msg_id_(other.msg_id_),
        to_(other.to_),
        payload_(std::move(other.payload_)) {
    other.registry_ = nullptr;
  }

  ~RequestCall() {
    if (registry_) registry_->done(msg_id_);
  }

  std::uint64_t id() const { return msg_id_; }
  NodeId to() const { return to_; }
  const Payload& payload() const { return payload_; }

  // Waits up to `timeout` for the next reply; the call stays registered on
  // timeout, so the retry layer can re-send under the same id and poll again.
  std::optional<Message> poll_for(SimDuration timeout) {
    return registry_->wait(call_, msg_id_, timeout);
  }

  // True once close_all() hit this call — distinguishes "cluster shutting
  // down" from "reply genuinely lost" when poll_for() returns nothing.
  bool closed() const {
    MutexLock lk(call_->mu);
    return call_->closed;
  }

 private:
  PendingCalls* registry_;
  PendingCalls::CallPtr call_;
  std::uint64_t msg_id_;
  NodeId to_;
  Payload payload_;
};

// Retry schedule for idempotent requests: capped exponential timeouts with
// deterministic per-attempt jitter. Every resend reuses the original msg_id,
// so the pending call keeps matching whichever attempt's reply lands first
// and the receiver can deduplicate by id.
struct RetryPolicy {
  SimDuration base_timeout = sim_ms(8);
  SimDuration max_timeout = sim_ms(50);
  int max_retries = 6;  // resends after the first attempt

  // Timeout for `attempt` (0-based), jittered +-25% by the request id so
  // simultaneous retry storms de-synchronise deterministically.
  SimDuration timeout_for(int attempt, std::uint64_t msg_id) const;
};

// The resend budget of a request that must not give up (the ownership
// registration): reliable_wait resends it every max_timeout, once the
// schedule reaches the cap, until the reply lands or the call is closed.
inline constexpr int kUntilAnswered = std::numeric_limits<int>::max();

class Comm {
 public:
  virtual ~Comm() = default;

  virtual NodeId self() const = 0;
  virtual std::uint32_t cluster_size() const = 0;

  // Sends a request and returns the handle for its reply/replies.
  virtual RequestCall request(NodeId to, Payload payload) = 0;

  // Sends a request that no pending call waits for and returns its msg_id:
  // the reply reaches the node's handler, which passes it to the owner side's
  // resend table (a lock release or an Alg. 4 hand-off, each recorded under
  // the id).
  virtual std::uint64_t send_request(NodeId to, Payload payload) = 0;

  // One-way message (no reply expected).
  virtual void post(NodeId to, Payload payload) = 0;

  // Replies to a received request.
  virtual void reply(const Message& request, Payload payload) = 0;

  // Replies to a request that was *not* received by this node: the queued
  // object hand-off, where the committer answers an ObjectRequest that was
  // parked at the previous owner.
  virtual void reply_routed(NodeId to, std::uint64_t reply_to, Payload payload) = 0;

  // Re-sends a request under its ORIGINAL msg_id (the pending call stays
  // registered; the receiver's reply cache deduplicates re-execution).
  // `attempt` is the retransmission ordinal (1 = first resend); the fault
  // injector keys on it so retries of a dropped message roll new dice.
  virtual void resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
                      Payload payload) = 0;

  // The node's retry schedule for reliable_wait() and the owner side's
  // resends.
  virtual const RetryPolicy& retry_policy() const = 0;
};

// Waits for the reply to `call`, re-sending the call's own request on each
// timeout per `policy`. Returns the reply, or nullopt once the registry was
// closed (check call.closed()) or `policy.max_retries` resends went
// unanswered; on the kUntilAnswered budget only the close ends the wait.
// Only valid for idempotent requests: the receiver may execute the request
// more than once if its reply cache has aged the entry out.
std::optional<Message> reliable_wait(Comm& comm, RequestCall& call, const RetryPolicy& policy);

}  // namespace hyflow::net
