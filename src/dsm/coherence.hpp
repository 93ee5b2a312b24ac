// Requester-side driver of the cache-coherence protocol: resolve an
// object's current owner ("Find_owner" in Alg. 2).
//
// Resolution order: (1) the per-node owner-hint cache, filled by previous
// fetches; (2) an RPC to the object's home-node directory shard. A
// `wrong_owner` response from a stale hint invalidates it and forces a fresh
// directory lookup. The TM proxy's local-cache check, "does this node own
// it?", comes first and reads the store, so tfa::TfaRuntime makes it under
// the node's owner lock before it asks the resolver.
#pragma once

#include <optional>
#include <unordered_map>

#include "dsm/object_id.hpp"
#include "net/comm.hpp"
#include "util/mutex.hpp"

namespace hyflow::dsm {

class OwnerResolver {
 public:
  explicit OwnerResolver(net::Comm& comm) : comm_(comm) {}

  // Blocking (performs a directory RPC on cache miss). Returns nullopt only
  // if the directory has no entry or the cluster is shutting down.
  std::optional<NodeId> find_owner(ObjectId oid);

  // Drop a hint that turned out stale.
  void invalidate(ObjectId oid);

  // A fetch response told us who the owner is (or we just became it).
  void note_owner(ObjectId oid, NodeId owner);

  // The cached owner of `oid`, without a directory lookup. After this node
  // hands an object off, it names the new owner.
  std::optional<NodeId> hint(ObjectId oid) const;

 private:
  net::Comm& comm_;
  mutable Mutex mu_{LockRank::kOwnerHints, "OwnerResolver::mu"};
  std::unordered_map<ObjectId, NodeId> hints_ GUARDED_BY(mu_);
};

}  // namespace hyflow::dsm
