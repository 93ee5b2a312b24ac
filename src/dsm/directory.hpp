// Directory-based cache-coherence metadata.
//
// Every object has a *home* node, `hash(oid) % N`, whose DirectoryShard
// tracks the object's current owner. The owner changes when a write
// transaction commits: TFA's validation phase performs the "global
// registration of object ownership" (§II) by sending RegisterOwnerRequest
// to the home node — the round-trip is a deliberate part of the validation
// window during which conflicting requesters hit the scheduler.
//
// Registrations carry the committing version clock and are applied
// monotonically, so a late-arriving registration from an older commit can
// never clobber a newer owner.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "dsm/object_id.hpp"
#include "util/rng.hpp"

namespace hyflow::dsm {

inline NodeId home_node(ObjectId oid, std::uint32_t cluster_size) {
  return static_cast<NodeId>(mix64(oid.value) % cluster_size);
}

class DirectoryShard {
 public:
  // Initial placement at cluster construction (version clock 0).
  void publish(ObjectId oid, NodeId owner);

  std::optional<NodeId> lookup(ObjectId oid) const;

  // Monotonic owner update; returns false (and leaves the entry unchanged)
  // if `version_clock` is older than the registered one.
  bool register_owner(ObjectId oid, NodeId new_owner, std::uint64_t version_clock);

 private:
  struct Entry {
    NodeId owner = kInvalidNode;
    std::uint64_t version_clock = 0;
  };
  std::unordered_map<ObjectId, Entry> entries_;
};

}  // namespace hyflow::dsm
