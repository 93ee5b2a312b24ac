// Algorithm 1 of the paper: the per-object scheduling structures.
//
//   Requester       -> net::QueuedRequester (address, txid, plus the routing
//                      id of the parked request, its access mode and rank)
//   Requester_List  -> RequesterList below: requesters in rank order, FIFO
//                      among equal ranks; a running Contention_Level
//                      (addRequester records the total computed at enqueue
//                      time, so getContention() yields the cumulative CL of
//                      everything queued); and the object's accumulated
//                      backoff `bk` (Alg. 3's static per-object backoff
//                      counter)
//   scheduling_List -> core::Scheduler's ObjectId -> RequesterList map
//
// Hand-off order (§III-B): one leading writer, or *all* leading readers
// simultaneously ("increasing the concurrency of the read transactions").
#pragma once

#include <deque>
#include <vector>

#include "dsm/object_id.hpp"
#include "net/payloads.hpp"
#include "util/time.hpp"

namespace hyflow::core {

class RequesterList {
 public:
  // Alg. 1 addRequester(Contention_Level, Requester). The entry goes before
  // the first queued requester with a strictly greater `priority` (its
  // rank), so equal ranks — rank 0 throughout for the FIFO policies — keep
  // arrival order.
  void add(std::uint32_t contention, net::QueuedRequester requester);

  // Priority of the youngest/lowest-ranked queued requester (the back of a
  // sorted queue); 0 when empty.
  std::uint64_t tail_priority() const { return queue_.empty() ? 0 : queue_.back().priority; }

  // Alg. 1 removeDuplicate(Address): a transaction whose backoff expired
  // re-requests as new; drop its stale entry. We match on txid rather than
  // node address — several transactions from one node may be queued, and
  // the retried transaction keeps its TxnId's node/sequence identity only
  // if it is genuinely the same requester.
  bool remove_duplicate(TxnId txid);

  // Alg. 1 getContention(): cumulative contention of the queued requesters.
  std::uint32_t contention() const { return contention_level_; }

  // Head group: the first writer alone, or every leading reader.
  std::vector<net::QueuedRequester> pop_head_group();

  // Bi-interval's reading interval: every queued reader, regardless of
  // position; with no reader queued, the head group (the leading writer).
  std::vector<net::QueuedRequester> pop_readers_first();

  std::vector<net::QueuedRequester> drain();

  // The object's accumulated backoff bk (reset when the queue empties —
  // otherwise bk grows without bound and Alg. 3's `bk < r-s` test would
  // eventually reject every transaction).
  SimDuration bk() const { return bk_; }
  void add_bk(SimDuration d) { bk_ += d; }

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

 private:
  void maybe_reset();

  std::deque<net::QueuedRequester> queue_;
  std::uint32_t contention_level_ = 0;
  SimDuration bk_ = 0;
};

}  // namespace hyflow::core
