// Read/write sets.
//
// Each nesting level of a transaction keeps its own AccessSet. An entry
// records the snapshot as fetched (or as inherited from an ancestor), the
// private working copy if the level wrote the object, the version the
// fetch observed, and where the object came from. On closed-nested commit
// the child's entries merge into the parent (the inherited objects — and
// with them, the fetch round-trips already paid — survive the child);
// on child abort the child's set is simply dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "dsm/object.hpp"
#include "dsm/object_id.hpp"
#include "dsm/version.hpp"
#include "net/payloads.hpp"

namespace hyflow::tfa {

struct AccessEntry {
  ObjectSnapshot base;                        // value observed at open
  std::shared_ptr<AbstractObject> working;    // private mutable copy (writes only)
  Version version;                            // version the fetch observed
  net::AccessMode mode = net::AccessMode::kRead;
  NodeId owner_hint = kInvalidNode;           // who served the fetch
  std::uint32_t owner_cl = 0;                 // local CL piggy-backed on the fetch
  bool inherited = false;  // views an ancestor's entry; never merged/validated here

  // The value this level observes: its own write if any, else the base.
  const AbstractObject& effective() const { return working ? *working : *base; }

  // Lazily create the private working copy.
  AbstractObject& mutable_copy() {
    if (!working) working = std::shared_ptr<AbstractObject>(effective().clone());
    mode = net::AccessMode::kWrite;
    return *working;
  }
};

class AccessSet {
 public:
  AccessEntry* find(ObjectId oid) {
    auto it = entries_.find(oid);
    return it == entries_.end() ? nullptr : &it->second;
  }
  const AccessEntry* find(ObjectId oid) const {
    auto it = entries_.find(oid);
    return it == entries_.end() ? nullptr : &it->second;
  }

  AccessEntry& insert(ObjectId oid, AccessEntry entry) {
    return entries_.insert_or_assign(oid, std::move(entry)).first->second;
  }

  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  std::size_t write_count() const {
    std::size_t n = 0;
    for (const auto& [oid, e] : entries_)
      if (!e.inherited && e.mode == net::AccessMode::kWrite) ++n;
    return n;
  }

 private:
  std::unordered_map<ObjectId, AccessEntry> entries_;
};

}  // namespace hyflow::tfa
