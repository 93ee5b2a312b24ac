// Owner-side object store.
//
// A node's store holds exactly the objects it currently owns — the single
// writable copy the CC protocol guarantees. A slot is *locked* while some
// transaction is validating a write to it (TFA commit); requests that
// arrive for a locked slot are the scheduler's input. Ownership transfer
// evicts the slot here and installs the new snapshot at the committer.
//
// A plain single-threaded class: the node's owner lock (runtime::Node,
// docs/CONCURRENCY.md) serializes every access, so a slot read and the
// decision taken on it form one step.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "dsm/object.hpp"
#include "dsm/object_id.hpp"
#include "dsm/version.hpp"
#include "util/time.hpp"

namespace hyflow::dsm {

struct SlotView {
  ObjectSnapshot object;
  Version version;
  TxnId locked_by;        // invalid() => unlocked
  SimTime locked_at = 0;  // when the current lock was taken (0 if unlocked)
};

class ObjectStore {
 public:
  // Installs an object this node now owns (initial placement or ownership
  // transfer). Replaces any previous slot state.
  void install(ObjectSnapshot object, Version version);

  // Reads a slot; nullopt if this node does not own the object.
  std::optional<SlotView> get(ObjectId oid) const;

  bool owns(ObjectId oid) const;

  enum class LockResult { kGranted, kBusy, kVersionMismatch, kNotOwner };

  // Commit-time write lock: grants only if unlocked (or already held by the
  // same transaction) and the version clock matches what the transaction
  // read — lock doubles as write-set validation.
  LockResult lock(ObjectId oid, TxnId txid, std::uint64_t expected_clock);

  // Releases a lock without committing. Returns false if `txid` did not
  // hold it (benign: the lock may have been evicted by a racing commit).
  bool unlock(ObjectId oid, TxnId txid);

  enum class ValidateResult { kValid, kInvalid, kNotOwner };

  // Read-set validation: current version must match and the slot must not
  // be mid-commit (a locked slot is about to change). A commit validates
  // only its reads, never a slot it locked.
  ValidateResult validate(ObjectId oid, std::uint64_t expected_clock) const;

  // Ownership moved away: drop the slot. Returns the evicted view.
  std::optional<SlotView> evict(ObjectId oid, TxnId committer);

  // Commit by the current owner itself: bump version/state in place and
  // release the lock.
  bool commit_in_place(ObjectId oid, TxnId txid, ObjectSnapshot object, Version version);

  std::size_t size() const;
  std::vector<ObjectId> owned_ids() const;

 private:
  struct Slot {
    ObjectSnapshot object;
    Version version;
    TxnId locked_by = kInvalidTxn;
    SimTime locked_at = 0;
  };
  std::unordered_map<ObjectId, Slot> slots_;
};

}  // namespace hyflow::dsm
