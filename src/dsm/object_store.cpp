#include "dsm/object_store.hpp"

#include "util/assert.hpp"
#include "util/time.hpp"

namespace hyflow::dsm {

void ObjectStore::install(ObjectSnapshot object, Version version) {
  HYFLOW_ASSERT(object != nullptr);
  const ObjectId oid = object->id();
  slots_[oid] = Slot{std::move(object), version, kInvalidTxn};
}

std::optional<SlotView> ObjectStore::get(ObjectId oid) const {
  auto it = slots_.find(oid);
  if (it == slots_.end()) return std::nullopt;
  return SlotView{it->second.object, it->second.version, it->second.locked_by,
                  it->second.locked_at};
}

bool ObjectStore::owns(ObjectId oid) const {
  return slots_.count(oid) > 0;
}

ObjectStore::LockResult ObjectStore::lock(ObjectId oid, TxnId txid,
                                          std::uint64_t expected_clock) {
  auto it = slots_.find(oid);
  if (it == slots_.end()) return LockResult::kNotOwner;
  Slot& slot = it->second;
  if (slot.locked_by.valid() && slot.locked_by != txid) return LockResult::kBusy;
  if (slot.version.clock != expected_clock) return LockResult::kVersionMismatch;
  if (slot.locked_by != txid) slot.locked_at = sim_now();
  slot.locked_by = txid;
  return LockResult::kGranted;
}

bool ObjectStore::unlock(ObjectId oid, TxnId txid) {
  auto it = slots_.find(oid);
  if (it == slots_.end() || it->second.locked_by != txid) return false;
  it->second.locked_by = kInvalidTxn;
  it->second.locked_at = 0;
  return true;
}

ObjectStore::ValidateResult ObjectStore::validate(ObjectId oid,
                                                  std::uint64_t expected_clock) const {
  auto it = slots_.find(oid);
  if (it == slots_.end()) return ValidateResult::kNotOwner;
  const Slot& slot = it->second;
  if (slot.version.clock != expected_clock || slot.locked_by.valid())
    return ValidateResult::kInvalid;
  return ValidateResult::kValid;
}

std::optional<SlotView> ObjectStore::evict(ObjectId oid, TxnId committer) {
  auto it = slots_.find(oid);
  if (it == slots_.end()) return std::nullopt;
  HYFLOW_ASSERT_MSG(!it->second.locked_by.valid() || it->second.locked_by == committer,
                    "evicting a slot locked by someone else");
  SlotView view{std::move(it->second.object), it->second.version, it->second.locked_by,
                it->second.locked_at};
  slots_.erase(it);
  return view;
}

bool ObjectStore::commit_in_place(ObjectId oid, TxnId txid, ObjectSnapshot object,
                                  Version version) {
  auto it = slots_.find(oid);
  if (it == slots_.end() || it->second.locked_by != txid) return false;
  it->second.object = std::move(object);
  it->second.version = version;
  it->second.locked_by = kInvalidTxn;
  it->second.locked_at = 0;
  return true;
}

std::size_t ObjectStore::size() const {
  return slots_.size();
}

std::vector<ObjectId> ObjectStore::owned_ids() const {
  std::vector<ObjectId> ids;
  ids.reserve(slots_.size());
  for (const auto& [oid, slot] : slots_) ids.push_back(oid);
  return ids;
}

}  // namespace hyflow::dsm
