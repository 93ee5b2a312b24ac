// Receiver-side request deduplication for at-least-once delivery.
//
// The retry layer re-sends a lost request under its original msg_id; the
// fault injector can also duplicate any message outright. Re-executing a
// request handler is not always safe (a replayed CommitRequest would find
// the ownership already transferred and hand back an empty queue), so each
// node remembers the requests it has executed and the reply it produced:
// a duplicate is answered from the cache — or silently swallowed for
// one-way messages — without touching protocol state.
//
// The cache is a bounded FIFO. An entry aged out while its requester still
// retries degrades to at-least-once execution, which the protocol tolerates
// (handlers for retried requests are idempotent: reentrant locks, monotonic
// directory registration, duplicate-filtered scheduler queues, and a
// hand-off that leaves a copy at or past its new version alone).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "net/payloads.hpp"
#include "util/mutex.hpp"

namespace hyflow::net {

class ReplyCache {
 public:
  struct Lookup {
    bool duplicate = false;
    // Set when the original request produced a direct reply to replay.
    std::optional<Payload> reply;
  };

  explicit ReplyCache(std::size_t capacity = 8192) : capacity_(capacity) {}

  // Called once per incoming request. First sighting registers the id and
  // returns {duplicate=false}; later sightings return the cached reply, if
  // the handler produced one before the duplicate arrived.
  Lookup admit(std::uint64_t msg_id);

  // Called when the handler replies to `msg_id`; no-op if the entry was
  // already evicted.
  void record_reply(std::uint64_t msg_id, const Payload& payload);

 private:
  void evict_locked() REQUIRES(mu_);

  const std::size_t capacity_;
  Mutex mu_{LockRank::kReplyCache, "ReplyCache::mu"};
  std::unordered_map<std::uint64_t, std::optional<Payload>> entries_ GUARDED_BY(mu_);
  std::deque<std::uint64_t> fifo_ GUARDED_BY(mu_);  // insertion order for eviction
};

}  // namespace hyflow::net
