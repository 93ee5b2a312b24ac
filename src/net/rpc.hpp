// Request/response matching on top of the raw network.
//
// A worker thread that sends a request opens a pending call keyed by the
// request's msg_id and blocks on it; the node's message handler routes any
// message with `reply_to == msg_id` to that call.
//
// One request may legitimately receive *two* replies: Retrieve_Request
// (Alg. 3) answers immediately ("enqueued, backoff=B"), and the eventual
// object hand-off (Alg. 4) arrives later — possibly from a different node
// (the committer that became the new owner). A call therefore holds a queue
// of replies and stays registered until the caller calls done() or the
// cluster shuts down; a wait that times out leaves it registered.
//
// A reply that finds no registered call is an *orphan*; for a granted
// object this triggers the paper's "not interested → forward to the next
// enqueued transaction" protocol, owned by the node's owner side.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/message.hpp"
#include "util/mutex.hpp"
#include "util/time.hpp"

namespace hyflow::net {

class PendingCalls {
 public:
  struct CallState {
    Mutex mu{LockRank::kCallState, "CallState::mu"};
    std::condition_variable_any cv;
    std::deque<Message> replies GUARDED_BY(mu);
    bool closed GUARDED_BY(mu) = false;
  };
  using CallPtr = std::shared_ptr<CallState>;

  // Registers a pending call for `msg_id`. Reserve the id first (see
  // Network::allocate_msg_id), open the call, then send — so a fast reply
  // can never race past the registration.
  CallPtr open(std::uint64_t msg_id);

  // Routes a reply to its call. Returns false if no call is registered
  // (finished) — the caller owns the orphan protocol.
  bool deliver(Message reply);

  // Blocks until a reply is queued, the timeout expires, or close_all();
  // every wait is bounded, so a lost reply cannot hang its caller. The
  // registration survives a timeout: the retry layer re-sends under the
  // same id and waits again. rtsbench's network echo still passes the
  // call's `msg_id`; it is ignored.
  std::optional<Message> wait(const CallPtr& call, std::uint64_t msg_id, SimDuration timeout);

  // Deregisters a call whose final reply has been consumed.
  void done(std::uint64_t msg_id);

  void close_all();

  std::size_t open_count() const;

 private:
  // Registry rank sits below kCallState: deliver()/wait() touch the registry
  // and a call's own lock in separate critical sections, but the declared
  // order keeps any future nesting registry -> call.
  mutable Mutex mu_{LockRank::kCallRegistry, "PendingCalls::mu"};
  std::unordered_map<std::uint64_t, CallPtr> calls_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace hyflow::net
