// In-process message-passing network with latency simulation.
//
// send() stamps the message with a cluster-unique id and schedules delivery
// `topology.delay(from,to)` in the future. One dispatcher thread is the
// cluster's event loop: it pops each due message from a timer queue and
// invokes the destination node's handler itself, so every handler of every
// node runs on it, one at a time and in due order. The same timed wait also
// runs an optional periodic tick (set_tick). Handlers are required to be
// non-blocking (they may send further messages); anything that must wait —
// a transaction blocked on an object fetch — waits on the *requester* side
// through net::PendingCalls, never inside a handler.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "net/fault_injector.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "util/mutex.hpp"

namespace hyflow::net {

struct TransportStats {
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> object_payloads{0};
  // Messages still in the timer queue when stop() cut them off.
  std::atomic<std::uint64_t> dropped_on_stop{0};
  // Messages per Payload alternative, indexed by Payload::index().
  std::array<std::atomic<std::uint64_t>, kPayloadKinds> by_kind{};

  void record(const Message& m) {
    messages.fetch_add(1, std::memory_order_relaxed);
    by_kind[m.payload.index()].fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(payload_wire_size(m.payload), std::memory_order_relaxed);
    if (std::holds_alternative<ObjectResponse>(m.payload) &&
        std::get<ObjectResponse>(m.payload).object) {
      object_payloads.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

class Network {
 public:
  using Handler = std::function<void(Message)>;
  using Tick = std::function<void(SimTime now)>;

  // `fault` configures the (default-off) fault-injection layer.
  explicit Network(Topology topology, FaultPlan fault = {});
  // rtsbench's network echo still passes a delivery-thread count; it is ignored.
  Network(Topology topology, int /*delivery_threads*/) : Network(std::move(topology)) {}
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Must be called for every node before start().
  void register_handler(NodeId node, Handler handler);

  // Optional; before start(). The dispatcher calls `fn(now)` about every
  // `period`, between deliveries, and never after stop() returns.
  void set_tick(SimDuration period, Tick fn);

  void start();
  // Idempotent; drains nothing — in-flight messages are dropped, but they
  // are counted (TransportStats::dropped_on_stop) and logged, never lost
  // silently.
  void stop();

  // Assigns msg_id (returned) and schedules delivery. Returns 0 when the
  // network is stopped.
  std::uint64_t send(Message m);

  // Reserve a message id up front so a pending call can be registered
  // before the message is handed to the network (avoids reply races).
  std::uint64_t allocate_msg_id() {
    return next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  }

  const Topology& topology() const { return topology_; }
  const TransportStats& stats() const { return stats_; }
  const FaultInjector& faults() const { return faults_; }

  // Test hook: block until no message is queued or in flight.
  void wait_idle() const;

 private:
  struct Timed {
    SimTime deliver_at;
    std::uint64_t seq;  // tie-break keeps send order for equal deadlines
    Message msg;
    bool operator>(const Timed& other) const {
      return deliver_at != other.deliver_at ? deliver_at > other.deliver_at
                                            : seq > other.seq;
    }
  };

  void dispatcher_loop(std::stop_token st);

  void schedule(Message m, SimTime deliver_at);

  Topology topology_;
  std::vector<Handler> handlers_;
  SimDuration tick_period_ = 0;
  Tick tick_;
  TransportStats stats_;
  FaultInjector faults_;

  mutable Mutex timer_mu_{LockRank::kNetTimer, "Network::timer_mu"};
  std::condition_variable_any timer_cv_;
  std::priority_queue<Timed, std::vector<Timed>, std::greater<>> timer_queue_
      GUARDED_BY(timer_mu_);

  std::atomic<std::uint64_t> next_msg_id_{1};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> running_{false};

  std::jthread dispatcher_;
};

}  // namespace hyflow::net
