// Distributed sorted linked list (LL microbenchmark).
//
// One shared object per list node: a sentinel head plus the slot of every
// key in the universe (see int_set.hpp). Traversals open a chain of objects
// — long read sets and many round-trips, the paper's motivation for reusing
// fetched objects when a parent is enqueued.
#pragma once

#include "workloads/int_set.hpp"

namespace hyflow::workloads {

class ListNode : public TxObject<ListNode> {
 public:
  ListNode(ObjectId id, std::int64_t key) : TxObject(id), key_(key) {}

  std::int64_t key() const { return key_; }
  ObjectId next() const { return next_; }
  void set_next(ObjectId n) { next_ = n; }

 private:
  std::int64_t key_;      // immutable: slot identity
  ObjectId next_ = kInvalidObject;  // invalid = unlinked / tail
};

class LinkedListWorkload : public IntSetWorkload {
 public:
  static constexpr std::uint32_t kProfileContains = 30;
  static constexpr std::uint32_t kProfileUpdate = 31;
  static constexpr std::size_t kUniverseCap = 48;

  explicit LinkedListWorkload(const WorkloadConfig& cfg)
      : IntSetWorkload(cfg, IdSpace::kListNode, kUniverseCap, kProfileContains,
                       kProfileUpdate) {}

  std::string name() const override { return "linked-list"; }
  void setup(runtime::Cluster& cluster) override;
  bool verify(runtime::Cluster& cluster) override;

  bool contains(tfa::Txn& tx, std::int64_t key) const override;
  void insert(tfa::Txn& tx, std::int64_t key) const override;
  void remove(tfa::Txn& tx, std::int64_t key) const override;

 private:
  ObjectId head_;  // sentinel, key = -1
};

}  // namespace hyflow::workloads
