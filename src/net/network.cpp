#include "net/network.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/log.hpp"

namespace hyflow::net {

Network::Network(Topology topology, FaultPlan fault)
    : topology_(std::move(topology)),
      handlers_(topology_.node_count()),
      faults_(std::move(fault)) {}

Network::~Network() { stop(); }

void Network::register_handler(NodeId node, Handler handler) {
  HYFLOW_ASSERT(node < handlers_.size());
  HYFLOW_ASSERT_MSG(!running_.load(), "register_handler after start()");
  handlers_[node] = std::move(handler);
}

void Network::set_tick(SimDuration period, Tick fn) {
  HYFLOW_ASSERT(period > 0);
  HYFLOW_ASSERT_MSG(!running_.load(), "set_tick after start()");
  tick_period_ = period;
  tick_ = std::move(fn);
}

void Network::start() {
  HYFLOW_ASSERT_MSG(!running_.exchange(true), "Network started twice");
  for (const auto& h : handlers_) HYFLOW_ASSERT_MSG(static_cast<bool>(h), "unregistered node");
  faults_.arm(sim_now());  // partition/crash windows are offsets from here
  dispatcher_ = std::jthread([this](std::stop_token st) { dispatcher_loop(st); });
}

void Network::stop() {
  if (!running_.exchange(false)) return;
  dispatcher_.request_stop();
  // Notify under timer_mu_: the dispatcher's wake condition includes
  // st.stop_requested(), which is NOT written under the mutex, so a bare
  // notify could land between the dispatcher's check and its wait and be
  // lost forever — stop() would then hang joining a sleeper that never
  // wakes. Taking the lock first serialises this notify against the check.
  {
    MutexLock lk(timer_mu_);
  }
  timer_cv_.notify_all();
  dispatcher_.join();
  // Account for every in-flight message the stop cut off: still waiting in
  // the timer queue. Silent discards here used to mask protocol bugs.
  std::uint64_t cut = 0;
  {
    MutexLock lk(timer_mu_);
    cut = timer_queue_.size();
    while (!timer_queue_.empty()) timer_queue_.pop();
  }
  if (cut > 0) {
    stats_.dropped_on_stop.fetch_add(cut, std::memory_order_relaxed);
    in_flight_.fetch_sub(cut, std::memory_order_relaxed);
    HYFLOW_INFO("network stop dropped ", cut, " in-flight message(s)");
  }
}

std::uint64_t Network::send(Message m) {
  if (!running_.load(std::memory_order_acquire)) return 0;
  HYFLOW_ASSERT(m.from < handlers_.size() && m.to < handlers_.size());
  if (m.msg_id == 0) m.msg_id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = m.msg_id;
  stats_.record(m);
  SimDuration delay = topology_.delay(m.from, m.to);
  if (const double j = topology_.config().jitter; j > 0.0) {
    // Deterministic per-message jitter in [1-j, 1+j] x base delay.
    const double u =
        static_cast<double>(mix64(id ^ topology_.config().seed) >> 11) *
        (1.0 / 9007199254740992.0);
    delay = static_cast<SimDuration>(static_cast<double>(delay) * (1.0 - j + 2.0 * j * u));
  }
  const SimTime now = sim_now();
  const SendFate fate = faults_.on_send(m, now);
  if (!fate.deliver) {
    // Silent loss: the sender still sees a valid msg_id — recovering from
    // exactly this is the reliable-RPC layer's job.
    if (Log::enabled(LogLevel::kTrace)) {
      HYFLOW_TRACE("fault drop ", payload_name(m.payload), " #", id, " ", m.from, "->", m.to);
    }
    return id;
  }
  if (fate.duplicate) schedule(m, now + delay + delay / 2 + 1);
  schedule(std::move(m), now + delay + fate.extra_delay);
  return id;
}

void Network::schedule(Message m, SimTime deliver_at) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lk(timer_mu_);
    timer_queue_.push(
        Timed{deliver_at, next_seq_.fetch_add(1, std::memory_order_relaxed), std::move(m)});
  }
  timer_cv_.notify_one();
}

void Network::dispatcher_loop(std::stop_token st) {
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  SimTime next_tick = tick_ ? sim_now() + tick_period_ : kNever;
  MutexLock lk(timer_mu_);
  while (!st.stop_requested()) {
    const SimTime now = sim_now();
    if (now >= next_tick) {
      lk.unlock();
      tick_(now);
      lk.lock();
      next_tick = sim_now() + tick_period_;  // a whole period between ticks
      continue;
    }
    const SimTime wake =
        timer_queue_.empty() ? next_tick : std::min(next_tick, timer_queue_.top().deliver_at);
    if (wake > now) {
      // Plain waits in a loop (no predicate lambda — the analysis cannot see
      // guarded accesses inside one): every wake-up, spurious or not,
      // re-checks the stop token, the tick and the queue at the top of the
      // loop, where an earlier message may have been pushed; stop()
      // notifies under timer_mu_.
      if (wake == kNever) {
        timer_cv_.wait(lk);
      } else {
        timer_cv_.wait_for(lk, to_chrono(wake - now));
      }
      continue;
    }
    // const_cast: priority_queue::top() is const but we are about to pop.
    Message msg = std::move(const_cast<Timed&>(timer_queue_.top()).msg);
    timer_queue_.pop();
    lk.unlock();
    if (Log::enabled(LogLevel::kTrace)) {
      HYFLOW_TRACE("deliver ", payload_name(msg.payload), " #", msg.msg_id, " ", msg.from,
                   "->", msg.to, (msg.reply_to ? " (reply)" : ""));
    }
    const NodeId to = msg.to;
    handlers_[to](std::move(msg));
    // Release: wait_idle's acquire load then sees everything the handler did.
    in_flight_.fetch_sub(1, std::memory_order_release);
    lk.lock();
  }
}

void Network::wait_idle() const {
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace hyflow::net
