#include "dsm/coherence.hpp"

#include "dsm/directory.hpp"
#include "util/log.hpp"

namespace hyflow::dsm {

std::optional<NodeId> OwnerResolver::find_owner(ObjectId oid) {
  {
    MutexLock lk(mu_);
    auto it = hints_.find(oid);
    if (it != hints_.end()) return it->second;
  }
  auto call = comm_.request(home_node(oid, comm_.cluster_size()), net::FindOwnerRequest{oid});
  auto reply = net::reliable_wait(comm_, call, comm_.retry_policy());
  if (!reply) return std::nullopt;  // shutdown, or retry budget exhausted
  const auto& resp = std::get<net::FindOwnerResponse>(reply->payload);
  if (!resp.known) {
    HYFLOW_WARN("find_owner: object ", oid.value, " unknown to directory");
    return std::nullopt;
  }
  note_owner(oid, resp.owner);
  return resp.owner;
}

void OwnerResolver::invalidate(ObjectId oid) {
  MutexLock lk(mu_);
  hints_.erase(oid);
}

void OwnerResolver::note_owner(ObjectId oid, NodeId owner) {
  MutexLock lk(mu_);
  hints_[oid] = owner;
}

std::optional<NodeId> OwnerResolver::hint(ObjectId oid) const {
  MutexLock lk(mu_);
  const auto it = hints_.find(oid);
  if (it == hints_.end()) return std::nullopt;
  return it->second;
}

}  // namespace hyflow::dsm
