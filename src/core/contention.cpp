#include "core/contention.hpp"

#include <algorithm>

namespace hyflow::core {

void ContentionTracker::record_request(ObjectId oid, TxnId txid, SimTime now) {
  auto& samples = recent_[oid];
  prune(samples, now);
  const auto it = std::find_if(samples.begin(), samples.end(),
                               [&](const Sample& s) { return s.txid == txid; });
  // A repeat still counts one distinct transaction; its sample moves to the
  // back, so the deque stays in time order and prune() can stop at the
  // first live sample.
  if (it != samples.end()) samples.erase(it);
  samples.push_back(Sample{txid, now});
  // Bound per-object memory; the CL heuristic saturates far below this.
  if (samples.size() > 256) samples.pop_front();
}

std::uint32_t ContentionTracker::local_cl(ObjectId oid, SimTime now) const {
  auto it = recent_.find(oid);
  if (it == recent_.end()) return 0;
  prune(it->second, now);
  return static_cast<std::uint32_t>(it->second.size());
}

void ContentionTracker::forget(ObjectId oid) {
  recent_.erase(oid);
}

void ContentionTracker::prune(std::deque<Sample>& samples, SimTime now) const {
  while (!samples.empty() && samples.front().at + window_ < now) samples.pop_front();
}

}  // namespace hyflow::core
