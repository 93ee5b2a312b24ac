#include "core/requester_list.hpp"

#include <algorithm>
#include <iterator>

namespace hyflow::core {

void RequesterList::add(std::uint32_t contention, net::QueuedRequester requester) {
  contention_level_ = contention;
  // The queue is always rank-sorted, so the first strictly greater rank is
  // an upper bound; a rank no smaller than the tail's appends.
  const auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), requester.priority,
      [](std::uint64_t rank, const net::QueuedRequester& r) { return rank < r.priority; });
  queue_.insert(pos, std::move(requester));
}

bool RequesterList::remove_duplicate(TxnId txid) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const net::QueuedRequester& r) { return r.txid == txid; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  maybe_reset();
  return true;
}

std::vector<net::QueuedRequester> RequesterList::pop_head_group() {
  std::vector<net::QueuedRequester> group;
  if (queue_.empty()) return group;
  if (queue_.front().mode == net::AccessMode::kWrite) {
    group.push_back(std::move(queue_.front()));
    queue_.pop_front();
  } else {
    while (!queue_.empty() && queue_.front().mode == net::AccessMode::kRead) {
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  maybe_reset();
  return group;
}

std::vector<net::QueuedRequester> RequesterList::pop_readers_first() {
  const auto is_reader = [](const net::QueuedRequester& r) {
    return r.mode == net::AccessMode::kRead;
  };
  std::vector<net::QueuedRequester> group;
  std::copy_if(queue_.begin(), queue_.end(), std::back_inserter(group), is_reader);
  if (group.empty()) return pop_head_group();
  std::erase_if(queue_, is_reader);
  maybe_reset();
  return group;
}

std::vector<net::QueuedRequester> RequesterList::drain() {
  std::vector<net::QueuedRequester> all(queue_.begin(), queue_.end());
  queue_.clear();
  maybe_reset();
  return all;
}

void RequesterList::maybe_reset() {
  if (queue_.empty()) {
    contention_level_ = 0;
    bk_ = 0;
  }
}

}  // namespace hyflow::core
