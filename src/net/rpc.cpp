#include "net/rpc.hpp"

#include <chrono>

#include "util/assert.hpp"

namespace hyflow::net {

PendingCalls::CallPtr PendingCalls::open(std::uint64_t msg_id) {
  auto call = std::make_shared<CallState>();
  MutexLock lk(mu_);
  if (closed_) {
    MutexLock call_lk(call->mu);
    call->closed = true;
    return call;
  }
  const bool inserted = calls_.emplace(msg_id, call).second;
  HYFLOW_ASSERT_MSG(inserted, "duplicate pending call id");
  return call;
}

bool PendingCalls::deliver(Message reply) {
  CallPtr call;
  {
    MutexLock lk(mu_);
    auto it = calls_.find(reply.reply_to);
    if (it == calls_.end()) return false;  // orphan
    call = it->second;                     // registration stays: multi-reply
  }
  {
    MutexLock lk(call->mu);
    call->replies.push_back(std::move(reply));
  }
  call->cv.notify_all();
  return true;
}

std::optional<Message> PendingCalls::wait(const CallPtr& call, std::uint64_t /*msg_id*/,
                                          SimDuration timeout) {
  MutexLock lk(call->mu);
  const auto deadline = std::chrono::steady_clock::now() + to_chrono(timeout);
  bool timed_out = false;
  while (call->replies.empty() && !call->closed && !timed_out) {
    timed_out = call->cv.wait_until(lk, deadline) == std::cv_status::timeout;
  }
  if (call->replies.empty()) return std::nullopt;  // timed out, or closed
  Message out = std::move(call->replies.front());
  call->replies.pop_front();
  return out;
}

void PendingCalls::done(std::uint64_t msg_id) {
  MutexLock lk(mu_);
  calls_.erase(msg_id);
}

void PendingCalls::close_all() {
  std::unordered_map<std::uint64_t, CallPtr> snapshot;
  {
    MutexLock lk(mu_);
    closed_ = true;
    snapshot.swap(calls_);
  }
  for (auto& [id, call] : snapshot) {
    {
      MutexLock lk(call->mu);
      call->closed = true;
    }
    call->cv.notify_all();
  }
}

std::size_t PendingCalls::open_count() const {
  MutexLock lk(mu_);
  return calls_.size();
}

}  // namespace hyflow::net
