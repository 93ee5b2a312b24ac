#include "dsm/directory.hpp"

#include "util/assert.hpp"

namespace hyflow::dsm {

void DirectoryShard::publish(ObjectId oid, NodeId owner) {
  auto [it, inserted] = entries_.emplace(oid, Entry{owner, 0});
  HYFLOW_ASSERT_MSG(inserted, "object published twice");
  (void)it;
}

std::optional<NodeId> DirectoryShard::lookup(ObjectId oid) const {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return std::nullopt;
  return it->second.owner;
}

bool DirectoryShard::register_owner(ObjectId oid, NodeId new_owner,
                                    std::uint64_t version_clock) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) {
    entries_.emplace(oid, Entry{new_owner, version_clock});
    return true;
  }
  if (version_clock < it->second.version_clock) return false;
  it->second.owner = new_owner;
  it->second.version_clock = version_clock;
  return true;
}

}  // namespace hyflow::dsm
