// Contention-level (CL) tracking (§III-A of the paper).
//
// The *local CL* of an object is "how many transactions have requested [it]
// during a given time period" — a sliding-window count of distinct
// requesting transactions, maintained by the object's owner. The *remote
// CL* of a transaction (its `myCL`) is the sum of the local CLs of the
// objects it currently holds; owners piggy-back the local CL on every
// granted fetch so requesters can accumulate it without extra messages.
// The scheduler's decision input is `queue contention + myCL` (Alg. 3).
#pragma once

#include <deque>
#include <unordered_map>

#include "dsm/object_id.hpp"
#include "util/time.hpp"

namespace hyflow::core {

class ContentionTracker {
 public:
  explicit ContentionTracker(SimDuration window = sim_ms(20)) : window_(window) {}

  // Records that `txid` requested `oid` at time `now`; repeated requests by
  // the same transaction within the window count once.
  void record_request(ObjectId oid, TxnId txid, SimTime now);

  // Distinct transactions that requested `oid` within the window.
  std::uint32_t local_cl(ObjectId oid, SimTime now) const;

  // Ownership moved away — drop the window (the new owner starts fresh).
  void forget(ObjectId oid);

 private:
  struct Sample {
    TxnId txid;
    SimTime at;
  };
  void prune(std::deque<Sample>& samples, SimTime now) const;

  SimDuration window_;
  // mutable: reads prune expired samples in place.
  mutable std::unordered_map<ObjectId, std::deque<Sample>> recent_;
};

}  // namespace hyflow::core
