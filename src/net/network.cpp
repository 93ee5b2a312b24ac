#include "net/network.hpp"

#include <chrono>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/log.hpp"

namespace hyflow::net {

Network::Network(Topology topology, int delivery_threads, FaultPlan fault)
    : topology_(std::move(topology)),
      handlers_(topology_.node_count()),
      faults_(std::move(fault)),
      delivery_thread_count_(delivery_threads) {
  HYFLOW_ASSERT(delivery_threads >= 1);
}

Network::~Network() { stop(); }

void Network::register_handler(NodeId node, Handler handler) {
  HYFLOW_ASSERT(node < handlers_.size());
  HYFLOW_ASSERT_MSG(!running_.load(), "register_handler after start()");
  handlers_[node] = std::move(handler);
}

void Network::start() {
  HYFLOW_ASSERT_MSG(!running_.exchange(true), "Network started twice");
  for (const auto& h : handlers_) HYFLOW_ASSERT_MSG(static_cast<bool>(h), "unregistered node");
  faults_.arm(sim_now());  // partition/crash windows are offsets from here
  lanes_.clear();
  for (int i = 0; i < delivery_thread_count_; ++i)
    lanes_.push_back(std::make_unique<BlockingQueue<Message>>());
  threads_.emplace_back([this](std::stop_token st) { dispatcher_loop(st); });
  for (int i = 0; i < delivery_thread_count_; ++i)
    threads_.emplace_back([this, i](std::stop_token st) { delivery_loop(st, i); });
}

void Network::stop() {
  if (!running_.exchange(false)) return;
  for (auto& t : threads_) t.request_stop();
  // Notify under timer_mu_: the dispatcher's wake condition includes
  // st.stop_requested(), which is NOT written under the mutex, so a bare
  // notify could land between the dispatcher's check and its wait and be
  // lost forever — stop() would then hang joining a sleeper that never
  // wakes. Taking the lock first serialises this notify against the check.
  {
    MutexLock lk(timer_mu_);
  }
  timer_cv_.notify_all();
  for (auto& lane : lanes_) lane->close();
  threads_.clear();  // jthread joins on destruction
  // Account for every in-flight message the stop cut off: still waiting in
  // the timer queue or sitting in a delivery lane behind a handler that
  // never ran. Silent discards here used to mask protocol bugs.
  std::uint64_t cut = 0;
  {
    MutexLock lk(timer_mu_);
    cut += timer_queue_.size();
    while (!timer_queue_.empty()) timer_queue_.pop();
  }
  for (auto& lane : lanes_) cut += lane->size();
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
  MutexLock lk(timer_mu_);
  while (!st.stop_requested()) {
    if (timer_queue_.empty()) {
      // Plain wait in a loop (no predicate lambda — the analysis cannot see
      // guarded accesses inside one): spurious wakeups re-check queue and
      // stop token at the top of the loop; stop() notifies under timer_mu_.
      timer_cv_.wait(lk);
      continue;
    }
    const SimTime next_at = timer_queue_.top().deliver_at;
    const SimTime now = sim_now();
    if (next_at > now) {
      timer_cv_.wait_for(lk, to_chrono(next_at - now));
      continue;  // re-evaluate: an earlier message may have been pushed
    }
    // const_cast: priority_queue::top() is const but we are about to pop.
    Message msg = std::move(const_cast<Timed&>(timer_queue_.top()).msg);
    timer_queue_.pop();
    lk.unlock();
    auto& lane = *lanes_[msg.to % lanes_.size()];
    if (!lane.push(std::move(msg))) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    lk.lock();
  }
}

void Network::delivery_loop(std::stop_token st, int lane) {
  while (!st.stop_requested()) {
    auto msg = lanes_[lane]->pop();
    if (!msg) return;  // queue closed and drained
    const NodeId to = msg->to;
    if (Log::enabled(LogLevel::kTrace)) {
      HYFLOW_TRACE("deliver ", payload_name(msg->payload), " #", msg->msg_id, " ",
                   msg->from, "->", to, (msg->reply_to ? " (reply)" : ""));
    }
    handlers_[to](std::move(*msg));
    // Release: wait_idle's acquire load then sees everything the handler did.
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

void Network::wait_idle() const {
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace hyflow::net
