// Unbounded blocking MPMC queue (mutex + condition variable; every wait
// re-checks its predicate in a loop, CP.42). Used for the network's
// delivery lanes.
//
// `close()` wakes all waiters; `pop()` then drains remaining items and
// finally returns nullopt — the standard shutdown protocol for worker loops.
//
// The queue's Mutex is an annotated capability (rank kInbox by default);
// waits go through std::condition_variable_any on the MutexLock guard so the
// thread-safety analysis tracks the capability across the wait.
#pragma once

#include <condition_variable>
#include <deque>
#include <optional>
#include <utility>

#include "util/mutex.hpp"

namespace hyflow {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(LockRank rank = LockRank::kInbox)
      : mu_(rank, "BlockingQueue::mu") {}

  // Returns false if the queue is closed (item is dropped).
  bool push(T item) {
    {
      MutexLock lk(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    MutexLock lk(mu_);
    while (items_.empty() && !closed_) cv_.wait(lk);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking variant.
  std::optional<T> try_pop() {
    MutexLock lk(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    MutexLock lk(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lk(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace hyflow
