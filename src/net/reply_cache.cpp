#include "net/reply_cache.hpp"

namespace hyflow::net {

ReplyCache::Lookup ReplyCache::admit(std::uint64_t msg_id) {
  MutexLock lk(mu_);
  auto [it, inserted] = entries_.try_emplace(msg_id, std::nullopt);
  if (inserted) {
    fifo_.push_back(msg_id);
    evict_locked();
    return {};
  }
  return {true, it->second};
}

void ReplyCache::record_reply(std::uint64_t msg_id, const Payload& payload) {
  MutexLock lk(mu_);
  auto it = entries_.find(msg_id);
  if (it != entries_.end()) it->second = payload;
}

void ReplyCache::evict_locked() {
  while (entries_.size() > capacity_ && !fifo_.empty()) {
    entries_.erase(fifo_.front());
    fifo_.pop_front();
  }
}

}  // namespace hyflow::net
